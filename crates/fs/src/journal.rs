//! The JBD-style write-ahead journal.
//!
//! Transactions collect metadata block images. A commit writes, inside the
//! journal region:
//!
//! ```text
//! | descriptor (seq, block list) | image … image | commit (seq, checksum) |
//! ```
//!
//! then checkpoints the images to their home locations and finally updates
//! the **journal superblock** to mark the transaction clean. Every journal
//! write is retried against the device until a *patience budget* is
//! exhausted (default 75 virtual seconds, standing in for the kernel's
//! SCSI timeout/retry stack); exhausting it **aborts the journal with
//! errno −5** — precisely the Ext4 failure the paper observes, because
//! "the journal superblock cannot be updated due to the blocked I/O".

use crate::error::FsError;
use crate::layout::{Reader, Writer, FS_BLOCK_SIZE, SECTORS_PER_FS_BLOCK};
use deepnote_blockdev::BlockDevice;
use deepnote_sim::{Clock, SimDuration, SimTime};
use std::collections::BTreeMap;

const JSB_MAGIC: u32 = 0x4A53_4231; // "JSB1"
const JDESC_MAGIC: u32 = 0x4A44_5343; // "JDSC"
const JCOMMIT_MAGIC: u32 = 0x4A43_4D54; // "JCMT"

/// How often the running transaction is committed (ext4 default: 5 s).
const COMMIT_INTERVAL: SimDuration = SimDuration::from_secs(5);

/// Reads one filesystem block.
pub(crate) fn read_fs_block(dev: &mut dyn BlockDevice, fs_block: u64) -> Result<Vec<u8>, FsError> {
    let mut buf = vec![0u8; FS_BLOCK_SIZE];
    dev.read_blocks(fs_block * SECTORS_PER_FS_BLOCK, &mut buf)?;
    Ok(buf)
}

/// Writes one or more contiguous filesystem blocks (single attempt).
pub(crate) fn write_fs_block(
    dev: &mut dyn BlockDevice,
    fs_block: u64,
    data: &[u8],
) -> Result<(), FsError> {
    debug_assert!(!data.is_empty() && data.len().is_multiple_of(FS_BLOCK_SIZE));
    dev.write_blocks(fs_block * SECTORS_PER_FS_BLOCK, data)?;
    Ok(())
}

/// The journal superblock: everything up to sequence `clean_seq` is
/// checkpointed, and the next record goes at region offset `head`.
fn jsb_image(clean_seq: u64, head: u64) -> Vec<u8> {
    let mut buf = vec![0u8; FS_BLOCK_SIZE];
    let mut w = Writer::new(&mut buf);
    w.u32(JSB_MAGIC);
    w.u64(clean_seq);
    w.u64(head);
    buf
}

/// The commit block's checksum over a transaction's home numbers and
/// images, read as little-endian words. Every image is one filesystem
/// block (`stage` and `recover` both guarantee it), so no image has a
/// partial last word.
fn checksum(images: &BTreeMap<u64, Vec<u8>>) -> u32 {
    let mut sum: u32 = 0;
    for (no, img) in images {
        debug_assert_eq!(img.len(), FS_BLOCK_SIZE);
        sum = sum.wrapping_add(*no as u32).wrapping_mul(31);
        for w in img.chunks_exact(4) {
            let word = u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            sum = sum.wrapping_add(word).rotate_left(1);
        }
    }
    sum
}

/// The journal state for a mounted filesystem.
#[derive(Debug, Clone)]
pub struct Journal {
    /// How long commit-path I/O is retried before the journal aborts.
    /// Models the kernel block layer's timeout/retry stack.
    patience: SimDuration,
    /// Journal region start (fs block index); block 0 of the region is
    /// the journal superblock.
    region_start: u64,
    region_blocks: u64,
    /// Next sequence number to commit.
    seq: u64,
    /// Highest sequence known fully checkpointed (clean).
    clean_seq: u64,
    /// Write head within the region (block offset ≥ 1).
    head: u64,
    /// The running transaction: home block → pending image.
    txn: BTreeMap<u64, Vec<u8>>,
    last_commit: SimTime,
    aborted: Option<i32>,
    commits: u64,
    write_failures: u64,
}

impl Journal {
    /// Creates a fresh (formatted) journal whose commit-path I/O is
    /// retried for `patience` before it aborts.
    pub fn new(patience: SimDuration, region_start: u64, region_blocks: u64, now: SimTime) -> Self {
        assert!(region_blocks >= 8, "journal region too small");
        Journal {
            patience,
            region_start,
            region_blocks,
            seq: 1,
            clean_seq: 0,
            head: 1,
            txn: BTreeMap::new(),
            last_commit: now,
            aborted: None,
            commits: 0,
            write_failures: 0,
        }
    }

    /// Number of successful commits so far.
    pub fn commits(&self) -> u64 {
        self.commits
    }

    /// Number of individual device-write failures absorbed by the
    /// commit-path retry loop (each one is a "Buffer I/O error" in kernel
    /// terms).
    pub fn write_failures(&self) -> u64 {
        self.write_failures
    }

    /// The pending image of a home block, if this transaction dirtied it.
    pub fn pending_image(&self, home_block: u64) -> Option<&[u8]> {
        self.txn.get(&home_block).map(|v| v.as_slice())
    }

    /// The pending image of a home block, writable in place.
    pub(crate) fn pending_image_mut(&mut self, home_block: u64) -> Option<&mut [u8]> {
        self.txn.get_mut(&home_block).map(Vec::as_mut_slice)
    }

    /// Drops the pending image of a home block freed by the running
    /// transaction: checkpointed, it would overwrite whatever the block
    /// holds once reused.
    pub(crate) fn unstage(&mut self, home_block: u64) {
        self.txn.remove(&home_block);
    }

    /// Stages a metadata block image into the running transaction.
    ///
    /// # Panics
    ///
    /// Panics if the image is not exactly one filesystem block.
    pub fn stage(&mut self, home_block: u64, image: Vec<u8>) {
        assert_eq!(
            image.len(),
            FS_BLOCK_SIZE,
            "staged image must be one fs block"
        );
        self.txn.insert(home_block, image);
    }

    /// Whether the commit interval has elapsed with work pending: staged
    /// metadata, or caller-side `extra_work` (ordered-mode dirty data).
    pub fn commit_due(&self, now: SimTime, extra_work: bool) -> bool {
        (!self.txn.is_empty() || extra_work)
            && now.saturating_duration_since(self.last_commit) >= COMMIT_INTERVAL
    }

    /// Parses a journal superblock, returning `(clean_seq, head)`.
    fn parse_jsb(buf: &[u8]) -> Option<(u64, u64)> {
        let mut r = Reader::new(buf);
        if r.u32()? != JSB_MAGIC {
            return None;
        }
        Some((r.u64()?, r.u64()?))
    }

    /// Writes `data` to `fs_block`, retrying on failure until the patience
    /// deadline; marks the journal aborted and returns the JBD error when
    /// patience runs out.
    fn write_patiently(
        &mut self,
        dev: &mut dyn BlockDevice,
        clock: &Clock,
        deadline: SimTime,
        fs_block: u64,
        data: &[u8],
    ) -> Result<(), FsError> {
        loop {
            let before = clock.now();
            match write_fs_block(dev, fs_block, data) {
                Ok(()) => return Ok(()),
                Err(_) if clock.now() < deadline => {
                    self.write_failures += 1;
                    // Device burned some time failing; if it didn't (ideal
                    // devices with injected faults), model the block
                    // layer's requeue delay.
                    if clock.now() == before {
                        clock.advance(SimDuration::from_millis(10));
                    }
                }
                Err(_) => {
                    self.write_failures += 1;
                    self.aborted = Some(-5);
                    return Err(FsError::JournalAborted { errno: -5 });
                }
            }
        }
    }

    /// Commits the running transaction in ordered mode: pending **data
    /// runs** are flushed to their home locations first, then the journal
    /// record is written, checkpointed, and the journal superblock
    /// updated.
    ///
    /// # Errors
    ///
    /// [`FsError::JournalAborted`] once the patience budget is exhausted;
    /// the journal is then permanently aborted.
    pub fn commit(
        &mut self,
        dev: &mut dyn BlockDevice,
        clock: &Clock,
        data_runs: &[(u64, Vec<u8>)],
    ) -> Result<(), FsError> {
        if let Some(errno) = self.aborted {
            return Err(FsError::JournalAborted { errno });
        }
        if self.txn.is_empty() && data_runs.is_empty() {
            self.last_commit = clock.now();
            return Ok(());
        }
        let deadline = clock.now() + self.patience;

        // Ordered mode: file data reaches disk before the metadata that
        // references it becomes durable.
        for (start, buf) in data_runs {
            self.write_patiently(dev, clock, deadline, *start, buf)?;
        }
        if self.txn.is_empty() {
            self.last_commit = clock.now();
            return Ok(());
        }

        // A transaction needs descriptor + images + commit block.
        let needed = 2 + self.txn.len() as u64;
        assert!(
            needed < self.region_blocks,
            "transaction of {} blocks exceeds journal capacity",
            self.txn.len()
        );
        if self.head + needed > self.region_blocks {
            self.head = 1; // wrap
        }

        // Descriptor + images + commit block form one contiguous record in
        // the journal region; issue them as a single sequential write —
        // exactly why journaling is fast on rotating media.
        let images: Vec<(u64, Vec<u8>)> = self
            .txn
            .iter()
            .map(|(no, img)| (*no, img.clone()))
            .collect();
        let mut record = vec![0u8; FS_BLOCK_SIZE * (2 + images.len())];
        {
            let mut w = Writer::new(&mut record[..FS_BLOCK_SIZE]);
            w.u32(JDESC_MAGIC);
            w.u64(self.seq);
            w.u32(self.txn.len() as u32);
            for no in self.txn.keys() {
                w.u64(*no);
            }
        }
        for (i, (_, img)) in images.iter().enumerate() {
            let off = FS_BLOCK_SIZE * (1 + i);
            record[off..off + FS_BLOCK_SIZE].copy_from_slice(img);
        }
        {
            let off = FS_BLOCK_SIZE * (1 + images.len());
            let mut w = Writer::new(&mut record[off..]);
            w.u32(JCOMMIT_MAGIC);
            w.u64(self.seq);
            w.u32(checksum(&self.txn));
        }
        let base = self.region_start + self.head;
        self.write_patiently(dev, clock, deadline, base, &record)?;

        // Checkpoint to home locations.
        for (no, img) in &images {
            self.write_patiently(dev, clock, deadline, *no, img)?;
        }

        // Mark clean: update the journal superblock. This is the write the
        // paper calls out as the one that "cannot be updated".
        self.clean_seq = self.seq;
        self.head += needed;
        let jsb = jsb_image(self.clean_seq, self.head);
        self.write_patiently(dev, clock, deadline, self.region_start, &jsb)?;

        self.seq += 1;
        self.txn.clear();
        self.last_commit = clock.now();
        self.commits += 1;
        Ok(())
    }

    /// Replays committed-but-not-checkpointed transactions after a crash.
    /// Returns the number of transactions applied, and the reconstructed
    /// journal ready for new work.
    ///
    /// # Errors
    ///
    /// Propagates device errors encountered while reading the journal or
    /// applying images.
    pub fn recover(
        patience: SimDuration,
        dev: &mut dyn BlockDevice,
        region_start: u64,
        region_blocks: u64,
        now: SimTime,
    ) -> Result<(Journal, usize), FsError> {
        let jsb_raw = read_fs_block(dev, region_start)?;
        let (clean_seq, _head) = Self::parse_jsb(&jsb_raw).unwrap_or((0, 1));

        // Scan the whole region for valid transactions.
        let mut candidates: BTreeMap<u64, Vec<(u64, Vec<u8>)>> = BTreeMap::new();
        let mut off = 1;
        while off < region_blocks {
            let raw = read_fs_block(dev, region_start + off)?;
            // A descriptor that does not parse — bad magic, or a home
            // list torn past the end of the block — is skipped like any
            // other non-descriptor block.
            let parse_desc = |raw: &[u8]| -> Option<(u64, u64, Vec<u64>)> {
                let mut r = Reader::new(raw);
                if r.u32()? != JDESC_MAGIC {
                    return None;
                }
                let seq = r.u64()?;
                let count = r.u32()? as u64;
                if count == 0 || off + 1 + count + 1 > region_blocks {
                    return None;
                }
                let mut homes = Vec::new();
                for _ in 0..count {
                    homes.push(r.u64()?);
                }
                Some((seq, count, homes))
            };
            let Some((seq, count, homes)) = parse_desc(&raw) else {
                off += 1;
                continue;
            };
            let mut images = BTreeMap::new();
            for (i, home) in homes.iter().enumerate() {
                let img = read_fs_block(dev, region_start + off + 1 + i as u64)?;
                images.insert(*home, img);
            }
            let cmt_raw = read_fs_block(dev, region_start + off + 1 + count)?;
            let mut cr = Reader::new(&cmt_raw);
            let valid = cr.u32() == Some(JCOMMIT_MAGIC)
                && cr.u64() == Some(seq)
                && cr.u32() == Some(checksum(&images));
            if valid {
                candidates.insert(seq, images.into_iter().collect());
                off += 1 + count + 1;
            } else {
                off += 1;
            }
        }

        // Apply transactions newer than the clean mark, in order.
        let mut applied = 0;
        let mut max_seq = clean_seq;
        for (seq, images) in candidates {
            max_seq = max_seq.max(seq);
            if seq <= clean_seq {
                continue;
            }
            for (home, img) in images {
                write_fs_block(dev, home, &img)?;
            }
            applied += 1;
        }

        let mut journal = Journal::new(patience, region_start, region_blocks, now);
        journal.seq = max_seq + 1;
        journal.clean_seq = max_seq;
        // Mark everything clean.
        let jsb = jsb_image(journal.clean_seq, journal.head);
        write_fs_block(dev, region_start, &jsb)?;
        Ok((journal, applied))
    }

    /// Formats the journal region (zeroes the journal superblock state).
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn format(
        dev: &mut dyn BlockDevice,
        region_start: u64,
        region_blocks: u64,
    ) -> Result<(), FsError> {
        assert!(region_blocks >= 8, "journal region too small");
        write_fs_block(dev, region_start, &jsb_image(0, 1))?;
        // Invalidate the first descriptor slot so stale journals are not
        // replayed.
        write_fs_block(dev, region_start + 1, &vec![0u8; FS_BLOCK_SIZE])?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepnote_blockdev::{ChaosInjector, ChaosPlan, IoError, MemDisk};
    use deepnote_sim::SimRng;

    const REGION: u64 = 1;
    const RLEN: u64 = 64;
    const PATIENCE: SimDuration = SimDuration::from_secs(75);

    fn image(fill: u8) -> Vec<u8> {
        vec![fill; FS_BLOCK_SIZE]
    }

    fn fresh(dev: &mut dyn BlockDevice, clock: &Clock) -> Journal {
        Journal::format(dev, REGION, RLEN).unwrap();
        Journal::new(PATIENCE, REGION, RLEN, clock.now())
    }

    #[test]
    fn commit_checkpoints_images() {
        let clock = Clock::new();
        let mut dev = MemDisk::new(1 << 16);
        let mut j = fresh(&mut dev, &clock);
        j.stage(100, image(0xAA));
        j.stage(101, image(0xBB));
        assert!(j.pending_image(100).is_some() && j.pending_image(101).is_some());
        j.commit(&mut dev, &clock, &[]).unwrap();
        assert!(j.pending_image(100).is_none() && j.pending_image(101).is_none());
        assert_eq!(j.commits(), 1);
        assert_eq!(read_fs_block(&mut dev, 100).unwrap(), image(0xAA));
        assert_eq!(read_fs_block(&mut dev, 101).unwrap(), image(0xBB));
    }

    #[test]
    fn empty_commit_is_cheap_and_ok() {
        let clock = Clock::new();
        let mut dev = MemDisk::new(1 << 16);
        let mut j = fresh(&mut dev, &clock);
        j.commit(&mut dev, &clock, &[]).unwrap();
        assert_eq!(j.commits(), 0);
    }

    #[test]
    fn should_commit_after_interval() {
        let clock = Clock::new();
        let mut dev = MemDisk::new(1 << 16);
        let mut j = fresh(&mut dev, &clock);
        assert!(!j.commit_due(clock.now(), false));
        j.stage(50, image(1));
        assert!(!j.commit_due(clock.now(), false));
        let later = clock.now() + SimDuration::from_secs(5);
        assert!(j.commit_due(later, false));
    }

    #[test]
    fn pending_image_visible_before_commit() {
        let clock = Clock::new();
        let mut dev = MemDisk::new(1 << 16);
        let mut j = fresh(&mut dev, &clock);
        j.stage(77, image(3));
        assert_eq!(j.pending_image(77).unwrap()[0], 3);
        assert!(j.pending_image(78).is_none());
    }

    #[test]
    fn blocked_device_aborts_with_minus_5_after_patience() {
        let clock = Clock::new();
        let mut dev = ChaosInjector::new(
            MemDisk::new(1 << 16),
            ChaosPlan::fail_all(IoError::NoResponse),
            SimRng::seeded(0),
        );
        let mut j = Journal::new(PATIENCE, REGION, RLEN, clock.now());
        j.stage(100, image(9));
        let t0 = clock.now();
        let err = j.commit(&mut dev, &clock, &[]).unwrap_err();
        assert_eq!(err, FsError::JournalAborted { errno: -5 });
        assert_eq!(j.aborted, Some(-5));
        let waited = (clock.now() - t0).as_secs_f64();
        assert!((74.0..80.0).contains(&waited), "waited {waited}s");
        // And it stays aborted.
        assert_eq!(
            j.commit(&mut dev, &clock, &[]).unwrap_err(),
            FsError::JournalAborted { errno: -5 }
        );
    }

    #[test]
    fn recovery_applies_committed_but_not_checkpointed() {
        let clock = Clock::new();
        // Commit normally once so journal contains the records, then
        // simulate the checkpoint being lost by clobbering home blocks.
        let mut dev = MemDisk::new(1 << 16);
        let mut j = fresh(&mut dev, &clock);
        j.stage(200, image(0x11));
        j.stage(201, image(0x22));
        j.commit(&mut dev, &clock, &[]).unwrap();
        // Crash before checkpoint: emulate by zeroing the home blocks and
        // resetting the journal superblock's clean mark to 0.
        write_fs_block(&mut dev, 200, &image(0)).unwrap();
        write_fs_block(&mut dev, 201, &image(0)).unwrap();
        write_fs_block(&mut dev, REGION, &jsb_image(0, 1)).unwrap();

        let (j2, applied) =
            Journal::recover(PATIENCE, &mut dev, REGION, RLEN, clock.now()).unwrap();
        assert_eq!(applied, 1);
        assert_eq!(read_fs_block(&mut dev, 200).unwrap(), image(0x11));
        assert_eq!(read_fs_block(&mut dev, 201).unwrap(), image(0x22));
        assert!(j2.aborted.is_none());
    }

    #[test]
    fn recovery_ignores_clean_transactions() {
        let clock = Clock::new();
        let mut dev = MemDisk::new(1 << 16);
        let mut j = fresh(&mut dev, &clock);
        j.stage(300, image(0x77));
        j.commit(&mut dev, &clock, &[]).unwrap();
        // Home block now holds 0x77; overwrite it directly (as if a later
        // in-place update happened) and recover: the clean transaction
        // must NOT be re-applied over the newer data.
        write_fs_block(&mut dev, 300, &image(0x99)).unwrap();
        let (_, applied) = Journal::recover(PATIENCE, &mut dev, REGION, RLEN, clock.now()).unwrap();
        assert_eq!(applied, 0);
        assert_eq!(read_fs_block(&mut dev, 300).unwrap(), image(0x99));
    }

    #[test]
    fn torn_commit_not_replayed() {
        let clock = Clock::new();
        let mut dev = MemDisk::new(1 << 16);
        let mut j = fresh(&mut dev, &clock);
        j.stage(400, image(0x42));
        j.commit(&mut dev, &clock, &[]).unwrap();
        // Corrupt the commit block of the (only) transaction and reset
        // the clean mark: replay must reject the torn record.
        write_fs_block(&mut dev, 400, &image(0)).unwrap();
        // Descriptor is at region offset 1; images at 2; commit at 3.
        write_fs_block(&mut dev, REGION + 3, &image(0)).unwrap();
        write_fs_block(&mut dev, REGION, &jsb_image(0, 1)).unwrap();
        let (_, applied) = Journal::recover(PATIENCE, &mut dev, REGION, RLEN, clock.now()).unwrap();
        assert_eq!(applied, 0);
        assert_eq!(read_fs_block(&mut dev, 400).unwrap(), image(0));
    }

    #[test]
    fn ordered_data_runs_written_before_metadata() {
        let clock = Clock::new();
        let mut dev = MemDisk::new(1 << 16);
        let mut j = fresh(&mut dev, &clock);
        j.stage(700, image(0x10));
        let data = vec![
            (800u64, image(0x42)),
            (900u64, vec![7u8; FS_BLOCK_SIZE * 2]),
        ];
        j.commit(&mut dev, &clock, &data).unwrap();
        assert_eq!(read_fs_block(&mut dev, 700).unwrap(), image(0x10));
        assert_eq!(read_fs_block(&mut dev, 800).unwrap(), image(0x42));
        assert_eq!(read_fs_block(&mut dev, 901).unwrap(), image(7));
    }

    #[test]
    fn data_only_commit_flushes_without_journal_record() {
        let clock = Clock::new();
        let mut dev = MemDisk::new(1 << 16);
        let mut j = fresh(&mut dev, &clock);
        j.commit(&mut dev, &clock, &[(600, image(0x77))]).unwrap();
        assert_eq!(read_fs_block(&mut dev, 600).unwrap(), image(0x77));
        // No transaction was recorded.
        assert_eq!(j.commits(), 0);
    }

    /// A three-image transaction whose images differ in every byte
    /// position, so a checksum that reordered or dropped bytes would
    /// change.
    fn three_images() -> BTreeMap<u64, Vec<u8>> {
        [7u64, 300, 5_000]
            .into_iter()
            .enumerate()
            .map(|(i, home)| {
                let img = (0..FS_BLOCK_SIZE)
                    .map(|b| (b * 31 + i * 97 + b / 251) as u8)
                    .collect();
                (home, img)
            })
            .collect()
    }

    #[test]
    fn checksum_known_answer() {
        // Computed by the byte-wise loop the journal shipped with: the
        // commit-block format on disk depends on this exact value.
        assert_eq!(checksum(&three_images()), 1_120_198_357);
        assert_eq!(checksum(&BTreeMap::new()), 0);
    }

    #[test]
    fn committed_record_replays_through_recover() {
        let clock = Clock::new();
        let mut dev = MemDisk::new(1 << 16);
        let mut j = fresh(&mut dev, &clock);
        let images = three_images();
        for (home, img) in &images {
            j.stage(*home, img.clone());
        }
        j.commit(&mut dev, &clock, &[]).unwrap();
        // Lose the checkpoint and the clean mark, as a crash would.
        for home in images.keys() {
            write_fs_block(&mut dev, *home, &image(0)).unwrap();
        }
        write_fs_block(&mut dev, REGION, &jsb_image(0, 1)).unwrap();
        let (_, applied) = Journal::recover(PATIENCE, &mut dev, REGION, RLEN, clock.now()).unwrap();
        assert_eq!(applied, 1);
        for (home, img) in &images {
            assert_eq!(&read_fs_block(&mut dev, *home).unwrap(), img);
        }
    }

    #[test]
    fn journal_wraps_when_full() {
        let clock = Clock::new();
        let mut dev = MemDisk::new(1 << 16);
        let mut j = fresh(&mut dev, &clock);
        // Each txn uses 3 region blocks (desc + 1 image + commit); the
        // 64-block region wraps after ~21 commits.
        for i in 0..40u64 {
            j.stage(500 + i, image(i as u8));
            j.commit(&mut dev, &clock, &[]).unwrap();
        }
        assert_eq!(j.commits(), 40);
        for i in 0..40u64 {
            assert_eq!(read_fs_block(&mut dev, 500 + i).unwrap(), image(i as u8));
        }
    }
}
