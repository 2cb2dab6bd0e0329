//! The mounted filesystem.
//!
//! Semantics follow ext4's defaults where they matter to the paper:
//! ordered-mode journaling (file data in place before the metadata that
//! references it commits), a 5-second commit interval (drive it with
//! [`Filesystem::tick`]), and abort-to-read-only on a journal I/O failure.

use crate::alloc::Bitmap;
use crate::dir::{decode_entries, encode_entries, split_path, DirEntry};
use crate::error::FsError;
use crate::inode::{Inode, InodeKind, DIRECT_POINTERS, INDIRECT_POINTERS, MAX_FILE_SIZE, NO_BLOCK};
use crate::journal::{read_fs_block, write_fs_block, Journal};
use crate::layout::{
    SbState, Superblock, FS_BLOCK_SIZE, INODES_PER_BLOCK, INODE_DISK_SIZE, ROOT_INO,
    SECTORS_PER_FS_BLOCK,
};
use deepnote_blockdev::BlockDevice;
use deepnote_sim::{Clock, SimDuration, SimTime};
use deepnote_telemetry::{Layer, Tracer, Value};
use serde::{Deserialize, Serialize};

/// How long commit-path I/O is retried before the journal aborts, for
/// [`Filesystem::format`] and [`Filesystem::mount`]: the kernel block
/// layer's timeout/retry stack.
const PATIENCE: SimDuration = SimDuration::from_secs(75);

/// Whether the filesystem is serving writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FsState {
    /// Normal operation.
    Active,
    /// The journal aborted; the filesystem is read-only. The paper's Ext4
    /// crash state.
    Aborted {
        /// Kernel-convention errno (−5).
        errno: i32,
    },
}

/// Capacity counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FsStats {
    /// Total data blocks.
    pub total_blocks: u64,
    /// Free data blocks.
    pub free_blocks: u64,
    /// Total inodes.
    pub total_inodes: u64,
    /// Free inodes.
    pub free_inodes: u64,
    /// Journal commits since mount.
    pub journal_commits: u64,
}

/// A mounted journaling filesystem over a block device.
///
/// See the crate docs for an end-to-end example.
#[derive(Debug)]
pub struct Filesystem<D: BlockDevice> {
    dev: D,
    clock: Clock,
    sb: Superblock,
    inode_bitmap: Bitmap,
    block_bitmap: Bitmap,
    /// Bitmap staging is incremental: only blocks whose bits changed since
    /// they were last staged are journaled again.
    dirty_inode_bitmap: bool,
    dirty_block_bitmap: std::collections::BTreeSet<u64>,
    /// Data blocks freed by the running transaction. Once it commits,
    /// those still free are discarded on the device (and dropped from an
    /// unbounded page cache): nothing committed references them.
    freed: Vec<u64>,
    /// In-memory block cache standing in for the OS page cache: reads of
    /// previously seen blocks cost no device time, which is what lets
    /// metadata-heavy workloads run at memory speed on a slow disk.
    cache: std::collections::BTreeMap<u64, Vec<u8>>,
    /// FIFO insertion order for eviction when a cache limit is set.
    cache_order: std::collections::VecDeque<u64>,
    /// Optional page-cache capacity in blocks (None = unbounded). A small
    /// limit models memory pressure: cold reads return to the device.
    cache_limit: Option<usize>,
    /// Ordered-mode dirty data runs (start block, bytes) awaiting the
    /// next commit, which flushes them before the journal record.
    pending_data: Vec<(u64, Vec<u8>)>,
    journal: Journal,
    state: FsState,
    tracer: Tracer,
}

impl<D: BlockDevice> Filesystem<D> {
    /// Formats `dev` and mounts the fresh filesystem.
    ///
    /// # Errors
    ///
    /// [`FsError::NoSpace`] for tiny devices; device errors otherwise.
    pub fn format(dev: D, clock: Clock) -> Result<Self, FsError> {
        Self::format_with_patience(dev, clock, PATIENCE)
    }

    /// Formats and mounts with an explicit journal patience: how long
    /// commit-path I/O is retried before the journal aborts.
    ///
    /// # Errors
    ///
    /// As for [`Filesystem::format`].
    pub fn format_with_patience(
        mut dev: D,
        clock: Clock,
        patience: SimDuration,
    ) -> Result<Self, FsError> {
        Self::write_format(&mut dev)?;
        Self::mount_with_patience(dev, clock, patience).map(|(fs, _)| fs)
    }

    /// Formats without mounting (shared by [`Filesystem::format`]).
    fn write_format(dev: &mut D) -> Result<(), FsError> {
        let mut sb = Superblock::plan(dev.num_blocks())?;
        sb.state = SbState::Clean;

        Journal::format(dev, sb.journal_start, sb.journal_blocks)?;

        // Inode bitmap: inode 0 reserved, inode 1 = root.
        let mut inode_bitmap = Bitmap::new(sb.total_inodes);
        inode_bitmap.set(0);
        inode_bitmap.set(ROOT_INO);
        write_fs_block(dev, sb.inode_bitmap_block, &inode_bitmap.block_image(0))?;

        // Block bitmap: all data blocks free.
        let block_bitmap = Bitmap::new(sb.data_blocks());
        for i in 0..sb.block_bitmap_blocks {
            write_fs_block(dev, sb.block_bitmap_start + i, &block_bitmap.block_image(i))?;
        }

        // Inode table: zeroed, with root directory in slot 1.
        let root = Inode::empty(InodeKind::Directory);
        let mut table0 = vec![0u8; FS_BLOCK_SIZE];
        let slot = (ROOT_INO % INODES_PER_BLOCK) as usize * INODE_DISK_SIZE;
        table0[slot..slot + INODE_DISK_SIZE].copy_from_slice(&root.to_bytes());
        write_fs_block(dev, sb.inode_table_start, &table0)?;
        for i in 1..sb.inode_table_blocks {
            write_fs_block(dev, sb.inode_table_start + i, &vec![0u8; FS_BLOCK_SIZE])?;
        }

        write_fs_block(dev, 0, &sb.to_block())?;
        Ok(())
    }

    /// Mounts an existing filesystem, replaying the journal if needed.
    /// Returns the filesystem and the number of transactions replayed.
    ///
    /// # Errors
    ///
    /// [`FsError::BadSuperblock`] if `dev` is not formatted; device errors
    /// otherwise.
    pub fn mount(dev: D, clock: Clock) -> Result<(Self, usize), FsError> {
        Self::mount_with_patience(dev, clock, PATIENCE)
    }

    /// Mounts with an explicit journal patience.
    ///
    /// # Errors
    ///
    /// As for [`Filesystem::mount`].
    pub fn mount_with_patience(
        mut dev: D,
        clock: Clock,
        patience: SimDuration,
    ) -> Result<(Self, usize), FsError> {
        let raw = read_fs_block(&mut dev, 0)?;
        let mut sb = Superblock::from_block(&raw)?;

        let (journal, replayed) = Journal::recover(
            patience,
            &mut dev,
            sb.journal_start,
            sb.journal_blocks,
            clock.now(),
        )?;

        // Load bitmaps (post-replay images).
        let ib_raw = read_fs_block(&mut dev, sb.inode_bitmap_block)?;
        let inode_bitmap = Bitmap::from_bytes(sb.total_inodes, &ib_raw);
        let mut bb_bytes = Vec::new();
        for i in 0..sb.block_bitmap_blocks {
            bb_bytes.extend_from_slice(&read_fs_block(&mut dev, sb.block_bitmap_start + i)?);
        }
        let block_bitmap = Bitmap::from_bytes(sb.data_blocks(), &bb_bytes);

        let state = match sb.state {
            SbState::HasError => FsState::Aborted {
                errno: sb.error_code,
            },
            _ => FsState::Active,
        };
        sb.state = if state == FsState::Active {
            SbState::Dirty
        } else {
            SbState::HasError
        };
        sb.mount_count += 1;
        write_fs_block(&mut dev, 0, &sb.to_block())?;

        Ok((
            Filesystem {
                dev,
                clock,
                sb,
                inode_bitmap,
                block_bitmap,
                dirty_inode_bitmap: false,
                dirty_block_bitmap: std::collections::BTreeSet::new(),
                freed: Vec::new(),
                cache: std::collections::BTreeMap::new(),
                cache_order: std::collections::VecDeque::new(),
                cache_limit: None,
                pending_data: Vec::new(),
                journal,
                state,
                tracer: Tracer::disabled(),
            },
            replayed,
        ))
    }

    /// A copy of this mounted filesystem over `dev` (a copy of this
    /// filesystem's device) on `clock`: superblock, bitmaps, page cache,
    /// pending data and journal carry over; the tracer starts disabled.
    pub fn replica(&self, dev: D, clock: Clock) -> Self {
        Filesystem {
            dev,
            clock,
            sb: self.sb.clone(),
            inode_bitmap: self.inode_bitmap.clone(),
            block_bitmap: self.block_bitmap.clone(),
            dirty_inode_bitmap: self.dirty_inode_bitmap,
            dirty_block_bitmap: self.dirty_block_bitmap.clone(),
            freed: self.freed.clone(),
            cache: self.cache.clone(),
            cache_order: self.cache_order.clone(),
            cache_limit: self.cache_limit,
            pending_data: self.pending_data.clone(),
            journal: self.journal.clone(),
            state: self.state,
            tracer: Tracer::disabled(),
        }
    }

    /// Commits outstanding work, marks the superblock clean, and returns
    /// the device.
    ///
    /// # Errors
    ///
    /// Any commit or superblock-write failure; the device is lost on
    /// error by design (a crashed unmount leaves a dirty filesystem for
    /// the next mount to recover).
    pub fn unmount(mut self) -> Result<D, FsError> {
        self.commit()?;
        self.sb.state = SbState::Clean;
        write_fs_block(&mut self.dev, 0, &self.sb.to_block())?;
        Ok(self.dev)
    }

    /// Returns the device without any I/O: nothing is committed, so the
    /// platters keep whatever a crash at this instant would leave (the
    /// next mount replays the journal). Unlike [`Filesystem::unmount`],
    /// this cannot fail.
    pub fn into_device(self) -> D {
        self.dev
    }

    /// Current availability state.
    pub fn state(&self) -> FsState {
        self.state
    }

    /// Capacity counters.
    pub fn stats(&self) -> FsStats {
        FsStats {
            total_blocks: self.sb.data_blocks(),
            free_blocks: self.block_bitmap.free(),
            total_inodes: self.sb.total_inodes,
            free_inodes: self.inode_bitmap.free(),
            journal_commits: self.journal.commits(),
        }
    }

    /// The clock this filesystem runs on.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Attaches a tracer; journal commits become fs-layer spans on the
    /// tracer's track, timestamped by this filesystem's clock.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Device-write failures absorbed by the journal's retry loop so far —
    /// what the kernel would report as buffer I/O errors.
    pub fn buffer_io_errors(&self) -> u64 {
        self.journal.write_failures()
    }

    /// Direct access to the underlying device (e.g. for attack wiring).
    pub fn device(&self) -> &D {
        &self.dev
    }

    /// Mutable access to the underlying device.
    pub fn device_mut(&mut self) -> &mut D {
        &mut self.dev
    }

    // ----- block/inode plumbing -------------------------------------

    /// An owned copy of the current image of `fs_block`, for a caller
    /// that modifies it.
    fn read_effective(&mut self, fs_block: u64) -> Result<Vec<u8>, FsError> {
        self.with_block(fs_block, <[u8]>::to_vec)
    }

    /// Applies `f` to the current image of `fs_block` without copying
    /// it: the staged journal image, else the cached page, else a device
    /// read that fills the cache.
    fn with_block<R>(&mut self, fs_block: u64, f: impl FnOnce(&[u8]) -> R) -> Result<R, FsError> {
        if let Some(img) = self.journal.pending_image(fs_block) {
            return Ok(f(img));
        }
        if let Some(cached) = self.cache.get(&fs_block) {
            return Ok(f(cached));
        }
        let raw = read_fs_block(&mut self.dev, fs_block)?;
        let out = f(&raw);
        self.cache_insert(fs_block, raw);
        Ok(out)
    }

    /// Inserts into the page cache, evicting oldest entries when a cache
    /// limit is configured. Metadata blocks pinned by the running journal
    /// transaction are never evicted (the journal holds its own images).
    fn cache_insert(&mut self, fs_block: u64, data: Vec<u8>) {
        if self.cache.insert(fs_block, data).is_none() {
            self.cache_order.push_back(fs_block);
        }
        self.enforce_cache_limit();
    }

    fn enforce_cache_limit(&mut self) {
        if let Some(limit) = self.cache_limit {
            while self.cache.len() > limit {
                let Some(oldest) = self.cache_order.pop_front() else {
                    break;
                };
                self.cache.remove(&oldest);
            }
        }
    }

    /// Caps the page cache at `limit` blocks (`None` = unbounded, the
    /// default). Small limits model memory pressure: previously cached
    /// blocks must be re-read from the device — which fails under attack.
    pub fn set_cache_limit(&mut self, limit: Option<usize>) {
        self.cache_limit = limit;
        self.enforce_cache_limit();
    }

    /// Buffers a contiguous run of dirty data blocks (ordered mode): the
    /// pages go into the cache immediately (reads see them, like a real
    /// page cache) and reach the device during the next commit, *before*
    /// the journal record.
    fn write_data_run(&mut self, start_block: u64, buf: Vec<u8>) {
        for (i, chunk) in buf.chunks(FS_BLOCK_SIZE).enumerate() {
            self.cache_insert(start_block + i as u64, chunk.to_vec());
        }
        // Extend the previous run if contiguous (common for appends).
        if let Some((start, bytes)) = self.pending_data.last_mut() {
            if *start + (bytes.len() / FS_BLOCK_SIZE) as u64 == start_block {
                bytes.extend_from_slice(&buf);
                return;
            }
        }
        self.pending_data.push((start_block, buf));
    }

    /// Stages a metadata image into the journal and mirrors it into the
    /// page cache (the staged image is what the block will hold once
    /// checkpointed).
    fn stage_and_cache(&mut self, fs_block: u64, img: Vec<u8>) {
        self.cache_insert(fs_block, img.clone());
        self.journal.stage(fs_block, img);
    }

    fn inode_location(&self, ino: u64) -> (u64, usize) {
        let block = self.sb.inode_table_start + ino / INODES_PER_BLOCK;
        let offset = (ino % INODES_PER_BLOCK) as usize * INODE_DISK_SIZE;
        (block, offset)
    }

    fn load_inode(&mut self, ino: u64) -> Result<Inode, FsError> {
        let (block, offset) = self.inode_location(ino);
        self.with_block(block, |raw| {
            Inode::from_bytes(&raw[offset..offset + INODE_DISK_SIZE])
        })?
    }

    fn stage_inode(&mut self, ino: u64, inode: &Inode) -> Result<(), FsError> {
        let (block, offset) = self.inode_location(ino);
        let mut raw = self.read_effective(block)?;
        raw[offset..offset + INODE_DISK_SIZE].copy_from_slice(&inode.to_bytes());
        self.stage_and_cache(block, raw);
        Ok(())
    }

    fn stage_bitmaps(&mut self) {
        if self.dirty_inode_bitmap {
            let target = self.sb.inode_bitmap_block;
            self.stage_and_cache(target, self.inode_bitmap.block_image(0));
            self.dirty_inode_bitmap = false;
        }
        for i in std::mem::take(&mut self.dirty_block_bitmap) {
            let target = self.sb.block_bitmap_start + i;
            self.stage_and_cache(target, self.block_bitmap.block_image(i));
        }
    }

    fn mark_block_bit_dirty(&mut self, bit_index: u64) {
        self.dirty_block_bitmap
            .insert(bit_index / (FS_BLOCK_SIZE as u64 * 8));
    }

    fn alloc_data_block(&mut self) -> Result<u64, FsError> {
        let idx = self.block_bitmap.alloc()?;
        self.mark_block_bit_dirty(idx);
        Ok(self.sb.data_start + idx)
    }

    fn free_data_block(&mut self, fs_block: u64) {
        let idx = fs_block - self.sb.data_start;
        self.block_bitmap.free_item(idx);
        self.mark_block_bit_dirty(idx);
        self.journal.unstage(fs_block);
        self.freed.push(fs_block);
    }

    /// Forgets the blocks `freed` by a transaction that has just
    /// committed, those still free: the device discards them, and an
    /// unbounded page cache drops them. A capped cache keeps them, so its
    /// FIFO order — which decides cold reads, and so virtual time — is
    /// exactly what it would be without discards.
    fn discard_freed(&mut self, freed: Vec<u64>) {
        for fs_block in freed {
            if self.block_bitmap.is_set(fs_block - self.sb.data_start) {
                continue; // reallocated by the same transaction
            }
            self.dev
                .discard(fs_block * SECTORS_PER_FS_BLOCK, SECTORS_PER_FS_BLOCK);
            if self.cache_limit.is_none() {
                self.cache.remove(&fs_block);
            }
        }
        // The unbounded cache's FIFO list is read only if a limit is set
        // later; drop its dead and repeated entries once it has grown to
        // twice the cache, keeping each block's first position.
        if self.cache_limit.is_none() && self.cache_order.len() > 2 * self.cache.len() + 64 {
            let mut seen = std::collections::BTreeSet::new();
            let cache = &self.cache;
            self.cache_order
                .retain(|b| cache.contains_key(b) && seen.insert(*b));
        }
    }

    /// The `index`-th data block of an inode, allocating it (and the
    /// indirect block) when `allocate` is set. Returns `NO_BLOCK` when
    /// unallocated and `allocate` is false.
    fn inode_block(
        &mut self,
        inode: &mut Inode,
        index: u64,
        allocate: bool,
    ) -> Result<u64, FsError> {
        if index < DIRECT_POINTERS as u64 {
            let i = index as usize;
            if inode.direct[i] == NO_BLOCK && allocate {
                inode.direct[i] = self.alloc_data_block()?;
            }
            return Ok(inode.direct[i]);
        }
        let ind_index = index - DIRECT_POINTERS as u64;
        if ind_index >= INDIRECT_POINTERS as u64 {
            return Err(FsError::FileTooLarge);
        }
        if inode.indirect == NO_BLOCK {
            if !allocate {
                return Ok(NO_BLOCK);
            }
            inode.indirect = self.alloc_data_block()?;
            self.stage_and_cache(inode.indirect, vec![0u8; FS_BLOCK_SIZE]);
        }
        // Copy the indirect block only for the first pointer this
        // transaction adds to it; once staged, it is patched in place.
        let target = inode.indirect;
        let at = (ind_index as usize) * 8..(ind_index as usize + 1) * 8;
        let staged = self.journal.pending_image(target).is_some();
        let (ptr, image) = self.with_block(target, |raw| {
            let ptr = raw
                .get(at.clone())
                .and_then(|s| s.try_into().ok())
                .map(u64::from_le_bytes);
            let image = (ptr == Some(NO_BLOCK) && allocate && !staged).then(|| raw.to_vec());
            (ptr, image)
        })?;
        let ptr = ptr.ok_or(FsError::BadSuperblock)?;
        if ptr != NO_BLOCK || !allocate {
            return Ok(ptr);
        }
        let new = self.alloc_data_block()?;
        self.patch(target, image, at, &new.to_le_bytes());
        Ok(new)
    }

    /// Overwrites bytes `at` of `fs_block` in the running transaction.
    /// `image` is the block's current image when it is not yet staged:
    /// patched, it is staged. A block already staged is patched in
    /// place, and its page-cache mirror with it (a copy of the staged
    /// image goes into the cache if the mirror was evicted).
    fn patch(
        &mut self,
        fs_block: u64,
        image: Option<Vec<u8>>,
        at: std::ops::Range<usize>,
        bytes: &[u8],
    ) {
        if let Some(mut raw) = image {
            raw[at].copy_from_slice(bytes);
            self.stage_and_cache(fs_block, raw);
            return;
        }
        let Some(img) = self.journal.pending_image_mut(fs_block) else {
            return;
        };
        if let Some(dst) = img.get_mut(at.clone()) {
            dst.copy_from_slice(bytes);
        }
        let mirror = self.cache.get_mut(&fs_block);
        match mirror.and_then(|page| page.get_mut(at)) {
            Some(dst) => dst.copy_from_slice(bytes),
            None => {
                let mirror = img.to_vec();
                self.cache_insert(fs_block, mirror);
            }
        }
    }

    /// The entries of directory `inode`.
    fn read_dir(&mut self, inode: &Inode) -> Result<Vec<DirEntry>, FsError> {
        decode_entries(&self.read_range(inode.clone(), 0, inode.size)?)
    }

    /// Bytes `offset..end` of `inode`'s content (holes read as zeros),
    /// read block by block.
    fn read_range(&mut self, mut inode: Inode, offset: u64, end: u64) -> Result<Vec<u8>, FsError> {
        let mut out = Vec::with_capacity((end - offset) as usize);
        let mut pos = offset;
        while pos < end {
            let b = pos / FS_BLOCK_SIZE as u64;
            let fs_block = self.inode_block(&mut inode, b, false)?;
            let block_start = b * FS_BLOCK_SIZE as u64;
            let take = (end - pos).min(FS_BLOCK_SIZE as u64 - (pos - block_start)) as usize;
            if fs_block == NO_BLOCK {
                out.extend(std::iter::repeat_n(0u8, take));
            } else {
                let off = (pos - block_start) as usize;
                self.with_block(fs_block, |raw| out.extend_from_slice(&raw[off..off + take]))?;
            }
            pos += take as u64;
        }
        Ok(out)
    }

    /// Replaces the entries of directory `ino` (journaled like metadata).
    fn write_dir(
        &mut self,
        ino: u64,
        inode: &mut Inode,
        entries: &[DirEntry],
    ) -> Result<(), FsError> {
        let data = encode_entries(entries);
        if data.len() as u64 > MAX_FILE_SIZE {
            return Err(FsError::FileTooLarge);
        }
        let new_blocks = Inode::blocks_for(data.len() as u64);
        for b in 0..new_blocks {
            let fs_block = self.inode_block(inode, b, true)?;
            let mut img = vec![0u8; FS_BLOCK_SIZE];
            let start = (b as usize) * FS_BLOCK_SIZE;
            let end = ((b as usize + 1) * FS_BLOCK_SIZE).min(data.len());
            img[..end - start].copy_from_slice(&data[start..end]);
            self.stage_and_cache(fs_block, img);
        }
        self.free_blocks_from(inode, new_blocks)?;
        inode.size = data.len() as u64;
        self.stage_inode(ino, inode)?;
        self.stage_bitmaps();
        Ok(())
    }

    /// Frees the blocks of `inode` from index `first` to its end of
    /// file, in index order, and clears their pointers. The indirect
    /// block is freed with them unless a slot of it survives (`first >
    /// DIRECT_POINTERS`); then the dropped slots are cleared in its
    /// staged image instead. Nothing is staged for a block it frees.
    fn free_blocks_from(&mut self, inode: &mut Inode, first: u64) -> Result<(), FsError> {
        let end = Inode::blocks_for(inode.size);
        let direct = DIRECT_POINTERS as u64;
        let mut dropped_slots = false;
        for b in first..end {
            let fs_block = self.inode_block(inode, b, false)?;
            if fs_block != NO_BLOCK {
                self.free_data_block(fs_block);
                match inode.direct.get_mut(b as usize) {
                    Some(slot) => *slot = NO_BLOCK,
                    None => dropped_slots = true,
                }
            }
        }
        if inode.indirect == NO_BLOCK || first >= end {
            return Ok(());
        }
        if first <= direct {
            self.free_data_block(inode.indirect);
            inode.indirect = NO_BLOCK;
        } else if dropped_slots {
            let target = inode.indirect;
            let at = (first - direct) as usize * 8..(end - direct) as usize * 8;
            let staged = self.journal.pending_image(target).is_some();
            let image = (!staged).then(|| self.read_effective(target)).transpose()?;
            self.patch(target, image, at.clone(), &vec![0u8; at.len()]);
        }
        Ok(())
    }

    // ----- path resolution -------------------------------------------

    /// Walks the path components `parts` down from the root directory.
    fn walk(&mut self, parts: &[&str]) -> Result<(u64, Inode), FsError> {
        let mut ino = ROOT_INO;
        let mut inode = self.load_inode(ino)?;
        for part in parts {
            if inode.kind != InodeKind::Directory {
                return Err(FsError::NotADirectory);
            }
            let entries = self.read_dir(&inode)?;
            ino = entries
                .iter()
                .find(|e| e.name == *part)
                .ok_or(FsError::NotFound)?
                .ino;
            inode = self.load_inode(ino)?;
        }
        Ok((ino, inode))
    }

    fn resolve(&mut self, path: &str) -> Result<(u64, Inode), FsError> {
        self.walk(&split_path(path)?)
    }

    fn resolve_parent<'p>(&mut self, path: &'p str) -> Result<(u64, Inode, &'p str), FsError> {
        let parts = split_path(path)?;
        let Some((name, parents)) = parts.split_last() else {
            return Err(FsError::InvalidPath); // root has no parent
        };
        let (ino, inode) = self.walk(parents)?;
        if inode.kind != InodeKind::Directory {
            return Err(FsError::NotADirectory);
        }
        Ok((ino, inode, name))
    }

    fn check_writable(&self) -> Result<(), FsError> {
        match self.state {
            FsState::Active => Ok(()),
            FsState::Aborted { errno } => Err(FsError::JournalAborted { errno }),
        }
    }

    // ----- public operations ------------------------------------------

    fn create_node(&mut self, path: &str, kind: InodeKind) -> Result<u64, FsError> {
        self.check_writable()?;
        let (parent_ino, mut parent, name) = self.resolve_parent(path)?;
        let mut entries = self.read_dir(&parent)?;
        if entries.iter().any(|e| e.name == name) {
            return Err(FsError::AlreadyExists);
        }
        let ino = self.inode_bitmap.alloc()?;
        self.dirty_inode_bitmap = true;
        let inode = Inode::empty(kind);
        self.stage_inode(ino, &inode)?;
        entries.push(DirEntry {
            ino,
            name: name.to_string(),
        });
        self.write_dir(parent_ino, &mut parent, &entries)?;
        Ok(ino)
    }

    /// Creates a directory.
    ///
    /// # Errors
    ///
    /// [`FsError::AlreadyExists`], [`FsError::NotFound`] (missing parent),
    /// [`FsError::JournalAborted`] when read-only, or space/I/O errors.
    pub fn create(&mut self, path: &str) -> Result<(), FsError> {
        self.create_node(path, InodeKind::Directory).map(|_| ())
    }

    /// Creates an empty regular file.
    ///
    /// # Errors
    ///
    /// As for [`Filesystem::create`].
    pub fn create_file(&mut self, path: &str) -> Result<(), FsError> {
        self.create_node(path, InodeKind::File).map(|_| ())
    }

    /// Writes `data` into a file at byte `offset`, extending it as needed.
    /// File data goes to disk in place (ordered mode); the metadata that
    /// references it is journaled.
    ///
    /// # Errors
    ///
    /// [`FsError::Io`] if a data write fails (the op fails but the
    /// filesystem survives); [`FsError::JournalAborted`] when read-only;
    /// the usual lookup/space errors otherwise.
    pub fn write_file(&mut self, path: &str, offset: u64, data: &[u8]) -> Result<(), FsError> {
        self.check_writable()?;
        let end = offset + data.len() as u64;
        if end > MAX_FILE_SIZE {
            return Err(FsError::FileTooLarge);
        }
        let (ino, mut inode) = self.resolve(path)?;
        if inode.kind != InodeKind::File {
            return Err(FsError::IsADirectory);
        }
        if data.is_empty() {
            return Ok(());
        }
        let first_block = offset / FS_BLOCK_SIZE as u64;
        let last_block = (end - 1) / FS_BLOCK_SIZE as u64;
        let mut written = 0usize;
        // Contiguously allocated blocks are coalesced into single device
        // writes (ordered mode: data in place, single attempt each).
        let mut run_start: u64 = 0;
        let mut run_buf: Vec<u8> = Vec::new();
        for b in first_block..=last_block {
            // A block that did not exist before this write reads as
            // zeros — no device I/O for freshly allocated space.
            let existed = self.inode_block(&mut inode, b, false)? != NO_BLOCK;
            let fs_block = self.inode_block(&mut inode, b, true)?;
            let block_start = b * FS_BLOCK_SIZE as u64;
            let in_block_off = offset.max(block_start) - block_start;
            let in_block_end = (end - block_start).min(FS_BLOCK_SIZE as u64);
            let chunk_len = (in_block_end - in_block_off) as usize;

            let full_overwrite = in_block_off == 0 && chunk_len == FS_BLOCK_SIZE;
            let old_img = if existed && !full_overwrite {
                // Partial block: read-modify-write (page cache assisted).
                Some(self.read_effective(fs_block)?)
            } else {
                None
            };

            let contiguous = !run_buf.is_empty()
                && fs_block == run_start + (run_buf.len() / FS_BLOCK_SIZE) as u64;
            if !contiguous {
                if !run_buf.is_empty() {
                    self.write_data_run(run_start, std::mem::take(&mut run_buf));
                }
                run_start = fs_block;
            }
            // The block's new image goes straight into the run.
            let img_start = run_buf.len();
            match old_img {
                Some(old) => run_buf.extend_from_slice(&old),
                None => run_buf.resize(img_start + FS_BLOCK_SIZE, 0),
            }
            let img = &mut run_buf[img_start..];
            img[in_block_off as usize..in_block_off as usize + chunk_len]
                .copy_from_slice(&data[written..written + chunk_len]);
            written += chunk_len;
        }
        if !run_buf.is_empty() {
            self.write_data_run(run_start, run_buf);
        }
        if end > inode.size {
            inode.size = end;
        }
        self.stage_inode(ino, &inode)?;
        self.stage_bitmaps();
        Ok(())
    }

    /// Reads up to `len` bytes from a file at byte `offset` (short reads
    /// at end of file).
    ///
    /// # Errors
    ///
    /// Lookup and device errors; reads are allowed even when aborted
    /// (read-only remount semantics).
    pub fn read_file(&mut self, path: &str, offset: u64, len: usize) -> Result<Vec<u8>, FsError> {
        let (_, inode) = self.resolve(path)?;
        if inode.kind != InodeKind::File {
            return Err(FsError::IsADirectory);
        }
        if offset >= inode.size {
            return Ok(Vec::new());
        }
        let end = (offset + len as u64).min(inode.size);
        self.read_range(inode, offset, end)
    }

    /// Lists a directory.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`] / [`FsError::NotADirectory`] plus device
    /// errors.
    pub fn list_dir(&mut self, path: &str) -> Result<Vec<DirEntry>, FsError> {
        let (_, inode) = self.resolve(path)?;
        if inode.kind != InodeKind::Directory {
            return Err(FsError::NotADirectory);
        }
        self.read_dir(&inode)
    }

    /// Returns the inode for a path.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`] and device errors.
    pub fn stat(&mut self, path: &str) -> Result<Inode, FsError> {
        self.resolve(path).map(|(_, inode)| inode)
    }

    /// Whether a path exists.
    pub fn exists(&mut self, path: &str) -> bool {
        self.resolve(path).is_ok()
    }

    /// Atomically renames a file or directory. Both directory updates
    /// share one journal transaction, so either both become durable or
    /// neither does.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`] for a missing source or destination parent,
    /// [`FsError::AlreadyExists`] if the destination exists, plus the
    /// usual state errors.
    pub fn rename(&mut self, from: &str, to: &str) -> Result<(), FsError> {
        self.check_writable()?;
        // Refuse to move a directory into its own subtree — that would
        // orphan the whole subtree into an unreachable cycle.
        let from_parts = split_path(from)?;
        let to_parts = split_path(to)?;
        if !from_parts.is_empty()
            && to_parts.len() > from_parts.len()
            && to_parts[..from_parts.len()] == from_parts[..]
        {
            return Err(FsError::InvalidPath);
        }
        if from_parts == to_parts || from_parts.is_empty() {
            return Err(FsError::InvalidPath);
        }
        let (from_parent_ino, mut from_parent, from_name) = self.resolve_parent(from)?;
        let from_name = from_name.to_string();
        let mut from_entries = self.read_dir(&from_parent)?;
        let idx = from_entries
            .iter()
            .position(|e| e.name == from_name)
            .ok_or(FsError::NotFound)?;
        let moved = from_entries[idx].clone();

        let (to_parent_ino, _, to_name) = self.resolve_parent(to)?;
        let to_name = to_name.to_string();
        if to_parent_ino == from_parent_ino {
            // Same directory: a pure entry rename.
            if from_entries.iter().any(|e| e.name == to_name) {
                return Err(FsError::AlreadyExists);
            }
            from_entries[idx].name = to_name;
            return self.write_dir(from_parent_ino, &mut from_parent, &from_entries);
        }
        let mut to_parent = self.load_inode(to_parent_ino)?;
        let mut to_entries = self.read_dir(&to_parent)?;
        if to_entries.iter().any(|e| e.name == to_name) {
            return Err(FsError::AlreadyExists);
        }
        from_entries.remove(idx);
        to_entries.push(DirEntry {
            ino: moved.ino,
            name: to_name,
        });
        self.write_dir(from_parent_ino, &mut from_parent, &from_entries)?;
        // Reload the destination parent in case the source update staged
        // a fresher image of a shared ancestor block.
        to_parent = self.load_inode(to_parent_ino)?;
        self.write_dir(to_parent_ino, &mut to_parent, &to_entries)
    }

    /// Truncates (or shrinks) a file to `new_size` bytes, freeing any
    /// blocks past the new end and zeroing the tail of the last block.
    ///
    /// # Errors
    ///
    /// Lookup/state errors; [`FsError::FileTooLarge`] beyond the maximum
    /// file size.
    pub fn truncate(&mut self, path: &str, new_size: u64) -> Result<(), FsError> {
        self.check_writable()?;
        if new_size > MAX_FILE_SIZE {
            return Err(FsError::FileTooLarge);
        }
        let (ino, mut inode) = self.resolve(path)?;
        if inode.kind != InodeKind::File {
            return Err(FsError::IsADirectory);
        }
        self.free_blocks_from(&mut inode, Inode::blocks_for(new_size))?;
        // Zero the tail of the last kept block so stale bytes cannot
        // reappear if the file grows again.
        if !new_size.is_multiple_of(FS_BLOCK_SIZE as u64) && new_size < inode.size {
            let b = new_size / FS_BLOCK_SIZE as u64;
            let fs_block = self.inode_block(&mut inode, b, false)?;
            if fs_block != NO_BLOCK {
                let mut img = self.read_effective(fs_block)?;
                let keep = (new_size % FS_BLOCK_SIZE as u64) as usize;
                img[keep..].fill(0);
                self.write_data_run(fs_block, img);
            }
        }
        inode.size = new_size;
        self.stage_inode(ino, &inode)?;
        self.stage_bitmaps();
        Ok(())
    }

    /// Removes a file or an empty directory.
    ///
    /// # Errors
    ///
    /// [`FsError::DirectoryNotEmpty`] for non-empty directories, plus the
    /// usual lookup/state errors.
    pub fn unlink(&mut self, path: &str) -> Result<(), FsError> {
        self.check_writable()?;
        let (parent_ino, mut parent, name) = self.resolve_parent(path)?;
        let mut entries = self.read_dir(&parent)?;
        let idx = entries
            .iter()
            .position(|e| e.name == name)
            .ok_or(FsError::NotFound)?;
        let ino = entries[idx].ino;
        let mut inode = self.load_inode(ino)?;
        if inode.kind == InodeKind::Directory && !self.read_dir(&inode)?.is_empty() {
            return Err(FsError::DirectoryNotEmpty);
        }
        self.free_blocks_from(&mut inode, 0)?;
        self.inode_bitmap.free_item(ino);
        self.dirty_inode_bitmap = true;
        self.stage_inode(ino, &Inode::empty(InodeKind::Free))?;
        entries.remove(idx);
        self.write_dir(parent_ino, &mut parent, &entries)
    }

    /// Forces a journal commit (fsync semantics).
    ///
    /// # Errors
    ///
    /// [`FsError::JournalAborted`] when the commit-path I/O stays blocked
    /// past the journal's patience; the filesystem is then read-only.
    pub fn commit(&mut self) -> Result<(), FsError> {
        self.check_writable()?;
        let data_runs = std::mem::take(&mut self.pending_data);
        let freed = std::mem::take(&mut self.freed);
        let t0 = self.clock.now();
        let commits_before = self.journal.commits();
        let result = self.journal.commit(&mut self.dev, &self.clock, &data_runs);
        if self.tracer.is_enabled() && (self.journal.commits() > commits_before || result.is_err())
        {
            self.tracer.span(
                Layer::Fs,
                "journal_commit",
                t0,
                self.clock.now().saturating_duration_since(t0),
                vec![
                    (
                        "outcome",
                        Value::Str(if result.is_ok() { "ok" } else { "aborted" }),
                    ),
                    ("data_runs", Value::U64(data_runs.len() as u64)),
                ],
            );
        }
        match result {
            Ok(()) => {
                self.discard_freed(freed);
                Ok(())
            }
            Err(FsError::JournalAborted { errno }) => {
                self.state = FsState::Aborted { errno };
                // Best-effort error mark on the superblock (may itself
                // fail under attack — ignore, like the kernel does).
                self.sb.state = SbState::HasError;
                self.sb.error_code = errno;
                let _ = write_fs_block(&mut self.dev, 0, &self.sb.to_block());
                Err(FsError::JournalAborted { errno })
            }
            Err(e) => Err(e),
        }
    }

    /// Drives the periodic commit timer: commits if the interval elapsed.
    /// Call this from the host's main loop (the OS layer does).
    ///
    /// # Errors
    ///
    /// As for [`Filesystem::commit`].
    pub fn tick(&mut self, now: SimTime) -> Result<(), FsError> {
        let work = !self.pending_data.is_empty();
        if self.state == FsState::Active && self.journal.commit_due(now, work) {
            self.commit()
        } else {
            Ok(())
        }
    }

    /// Lightweight consistency check for tests: returns human-readable
    /// problems (empty = consistent). No allocated inode, the root
    /// included, is free on disk or holds a block pointer past its end of
    /// file; every block the others name (data, directory and indirect
    /// blocks) is allocated and named once; every allocated block is
    /// named.
    ///
    /// # Errors
    ///
    /// Device errors while scanning.
    pub fn fsck(&mut self) -> Result<Vec<String>, FsError> {
        let mut problems = Vec::new();
        let mut used = std::collections::BTreeSet::new();
        let direct = DIRECT_POINTERS as u64;
        for ino in ROOT_INO..self.sb.total_inodes {
            if !self.inode_bitmap.is_set(ino) {
                continue;
            }
            let inode = self.load_inode(ino)?;
            if inode.kind == InodeKind::Free {
                problems.push(format!("inode {ino} allocated but free on disk"));
                continue;
            }
            // (index, pointer) for every slot, the indirect block's as
            // index `direct` (it exists for the blocks from there on).
            let mut slots: Vec<(u64, u64)> = (0..direct).zip(inode.direct).collect();
            if inode.indirect != NO_BLOCK {
                slots.push((direct, inode.indirect));
                let pointers = self.with_block(inode.indirect, |raw| {
                    raw.chunks_exact(8)
                        .map(|p| p.try_into().map_or(NO_BLOCK, u64::from_le_bytes))
                        .collect::<Vec<_>>()
                })?;
                slots.extend((direct..).zip(pointers));
            }
            let end = Inode::blocks_for(inode.size);
            for (index, fs_block) in slots {
                if fs_block == NO_BLOCK {
                    continue;
                }
                if index >= end {
                    problems.push(format!(
                        "inode {ino}: block {fs_block} at index {index} past end of file"
                    ));
                    continue;
                }
                if !used.insert(fs_block) {
                    problems.push(format!("block {fs_block} multiply referenced"));
                }
                let allocated = fs_block
                    .checked_sub(self.sb.data_start)
                    .is_some_and(|i| i < self.sb.data_blocks() && self.block_bitmap.is_set(i));
                if !allocated {
                    problems.push(format!("block {fs_block} in use but free in bitmap"));
                }
            }
        }
        for i in 0..self.sb.data_blocks() {
            let fs_block = self.sb.data_start + i;
            if self.block_bitmap.is_set(i) && !used.contains(&fs_block) {
                problems.push(format!("block {fs_block} allocated but unreferenced"));
            }
        }
        Ok(problems)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepnote_blockdev::{ChaosInjector, ChaosPlan, IoError, MemDisk};
    use deepnote_sim::{SimDuration, SimRng};

    fn new_fs() -> Filesystem<MemDisk> {
        Filesystem::format(MemDisk::new(1 << 17), Clock::new()).unwrap()
    }

    #[test]
    fn format_mount_roundtrip() {
        let clock = Clock::new();
        let mut fs = Filesystem::format(MemDisk::new(1 << 17), clock.clone()).unwrap();
        fs.create("/etc").unwrap();
        fs.create_file("/etc/passwd").unwrap();
        fs.write_file("/etc/passwd", 0, b"root:x:0:0").unwrap();
        let dev = fs.unmount().unwrap();
        let (mut fs2, replayed) = Filesystem::mount(dev, clock).unwrap();
        assert_eq!(replayed, 0); // clean unmount committed everything
        assert_eq!(fs2.read_file("/etc/passwd", 0, 100).unwrap(), b"root:x:0:0");
        assert_eq!(fs2.fsck().unwrap(), Vec::<String>::new());
    }

    #[test]
    fn hierarchy_and_listing() {
        let mut fs = new_fs();
        fs.create("/a").unwrap();
        fs.create("/a/b").unwrap();
        fs.create_file("/a/b/f").unwrap();
        let names: Vec<String> = fs
            .list_dir("/a/b")
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert_eq!(names, vec!["f"]);
        assert_eq!(fs.stat("/a/b/f").unwrap().kind, InodeKind::File);
        assert_eq!(fs.stat("/a").unwrap().kind, InodeKind::Directory);
        assert!(fs.exists("/a/b"));
        assert!(!fs.exists("/a/c"));
    }

    #[test]
    fn create_errors() {
        let mut fs = new_fs();
        fs.create_file("/f").unwrap();
        assert_eq!(fs.create_file("/f"), Err(FsError::AlreadyExists));
        assert_eq!(fs.create_file("/missing/f"), Err(FsError::NotFound));
        assert_eq!(fs.create_file("/f/under_file"), Err(FsError::NotADirectory));
        assert_eq!(fs.create_file("relative"), Err(FsError::InvalidPath));
    }

    #[test]
    fn write_read_offsets_and_extension() {
        let mut fs = new_fs();
        fs.create_file("/data").unwrap();
        fs.write_file("/data", 0, b"hello world").unwrap();
        fs.write_file("/data", 6, b"WORLD").unwrap();
        assert_eq!(fs.read_file("/data", 0, 64).unwrap(), b"hello WORLD");
        // Sparse extension.
        fs.write_file("/data", 10_000, b"far").unwrap();
        assert_eq!(fs.stat("/data").unwrap().size, 10_003);
        let hole = fs.read_file("/data", 5_000, 4).unwrap();
        assert_eq!(hole, vec![0, 0, 0, 0]);
        assert_eq!(fs.read_file("/data", 10_000, 3).unwrap(), b"far");
    }

    #[test]
    fn large_file_uses_indirect_blocks() {
        let mut fs = new_fs();
        fs.create_file("/big").unwrap();
        // 100 KiB > 12 direct blocks (48 KiB).
        let data: Vec<u8> = (0..102_400u32).map(|i| (i % 251) as u8).collect();
        fs.write_file("/big", 0, &data).unwrap();
        fs.commit().unwrap();
        assert_eq!(fs.read_file("/big", 0, data.len()).unwrap(), data);
        assert_ne!(fs.stat("/big").unwrap().indirect, NO_BLOCK);
        assert_eq!(fs.fsck().unwrap(), Vec::<String>::new());
    }

    #[test]
    fn file_too_large_rejected() {
        let mut fs = new_fs();
        fs.create_file("/big").unwrap();
        assert_eq!(
            fs.write_file("/big", MAX_FILE_SIZE, b"x"),
            Err(FsError::FileTooLarge)
        );
    }

    #[test]
    fn rename_within_directory() {
        let mut fs = new_fs();
        fs.create_file("/old").unwrap();
        fs.write_file("/old", 0, b"contents").unwrap();
        fs.rename("/old", "/new").unwrap();
        assert!(!fs.exists("/old"));
        assert_eq!(fs.read_file("/new", 0, 64).unwrap(), b"contents");
    }

    #[test]
    fn rename_across_directories() {
        let mut fs = new_fs();
        fs.create("/a").unwrap();
        fs.create("/b").unwrap();
        fs.create_file("/a/f").unwrap();
        fs.write_file("/a/f", 0, b"moved").unwrap();
        fs.rename("/a/f", "/b/g").unwrap();
        assert!(!fs.exists("/a/f"));
        assert_eq!(fs.read_file("/b/g", 0, 64).unwrap(), b"moved");
        assert!(fs.list_dir("/a").unwrap().is_empty());
        // Directories can move too.
        fs.rename("/a", "/b/sub").unwrap();
        assert!(fs.exists("/b/sub"));
        assert_eq!(fs.fsck().unwrap(), Vec::<String>::new());
    }

    #[test]
    fn rename_errors() {
        let mut fs = new_fs();
        fs.create_file("/x").unwrap();
        fs.create_file("/y").unwrap();
        assert_eq!(fs.rename("/x", "/y"), Err(FsError::AlreadyExists));
        assert_eq!(fs.rename("/missing", "/z"), Err(FsError::NotFound));
        assert_eq!(fs.rename("/x", "/nodir/z"), Err(FsError::NotFound));
    }

    #[test]
    fn rename_survives_remount() {
        let clock = Clock::new();
        let mut fs = Filesystem::format(MemDisk::new(1 << 17), clock.clone()).unwrap();
        fs.create_file("/before").unwrap();
        fs.write_file("/before", 0, b"payload").unwrap();
        fs.rename("/before", "/after").unwrap();
        let dev = fs.unmount().unwrap();
        let (mut fs2, _) = Filesystem::mount(dev, clock).unwrap();
        assert!(!fs2.exists("/before"));
        assert_eq!(fs2.read_file("/after", 0, 64).unwrap(), b"payload");
    }

    #[test]
    fn truncate_shrinks_and_zeroes_tail() {
        let mut fs = new_fs();
        fs.create_file("/t").unwrap();
        fs.write_file("/t", 0, &vec![0xFFu8; 10_000]).unwrap();
        let free_before = fs.stats().free_blocks;
        fs.truncate("/t", 5_000).unwrap();
        assert_eq!(fs.stat("/t").unwrap().size, 5_000);
        assert!(fs.stats().free_blocks > free_before);
        // Growing the file again reads zeros, not stale 0xFF.
        fs.write_file("/t", 9_000, b"tail").unwrap();
        let gap = fs.read_file("/t", 5_000, 16).unwrap();
        assert!(gap.iter().all(|&b| b == 0), "{gap:?}");
        assert_eq!(fs.read_file("/t", 9_000, 4).unwrap(), b"tail");
    }

    #[test]
    fn truncate_to_zero_frees_everything() {
        // 20 KB fits the direct pointers; 100 KiB also has an indirect
        // block, which must go too.
        for size in [20_000, 100 << 10] {
            let mut fs = new_fs();
            let free0 = fs.stats().free_blocks;
            fs.create_file("/t").unwrap();
            fs.write_file("/t", 0, &vec![1u8; size]).unwrap();
            fs.truncate("/t", 0).unwrap();
            // Only the root-directory content block remains allocated.
            assert_eq!(free0 - fs.stats().free_blocks, 1, "{size} bytes");
            assert_eq!(fs.stat("/t").unwrap().indirect, NO_BLOCK, "{size} bytes");
            assert_eq!(fs.read_file("/t", 0, 10).unwrap(), Vec::<u8>::new());
        }
    }

    #[test]
    fn fsck_reports_pointers_past_eof_and_unreferenced_blocks() {
        let mut fs = new_fs();
        fs.create_file("/f").unwrap();
        // 15 data blocks: 12 direct, 3 through the indirect block.
        fs.write_file("/f", 0, &vec![1u8; 60 << 10]).unwrap();
        assert_eq!(fs.fsck().unwrap(), Vec::<String>::new());
        // Cut the size behind the filesystem's back: 11 direct slots, the
        // indirect block and its 3 slots now lie past the end of file, and
        // nothing references those 15 blocks.
        let (ino, mut inode) = fs.resolve("/f").unwrap();
        inode.size = 1;
        fs.stage_inode(ino, &inode).unwrap();
        let problems = fs.fsck().unwrap();
        let count = |what: &str| problems.iter().filter(|p| p.contains(what)).count();
        assert_eq!(count("past end of file"), 15, "{problems:?}");
        assert_eq!(count("allocated but unreferenced"), 15, "{problems:?}");
        assert_eq!(problems.len(), 30, "{problems:?}");
    }

    #[test]
    fn a_freed_block_loses_its_staged_image() {
        // Emptying the root directory frees its block while the block's
        // new image is staged. The files written next wrap the 1,021-block
        // allocator around to it: it must read back, and commit, as their
        // data, not as the stale directory image.
        let clock = Clock::new();
        let mut fs = Filesystem::format(MemDisk::new(20_480), clock.clone()).unwrap();
        fs.create_file("/a").unwrap();
        fs.write_file("/a", 0, &vec![1u8; 60 << 10]).unwrap();
        let freed = fs.load_inode(ROOT_INO).unwrap().direct[0];
        fs.unlink("/a").unwrap();
        let sizes = [1 << 20, 1 << 20, 1 << 20, 900 << 10, 60 << 10];
        let files: Vec<(String, Vec<u8>)> = sizes
            .iter()
            .enumerate()
            .map(|(i, &len)| {
                let data = (0..len).map(|j: u32| (j % 251) as u8 ^ i as u8).collect();
                (format!("/f{i}"), data)
            })
            .collect();
        let mut reused = false;
        for (name, data) in &files {
            fs.create_file(name).unwrap();
            fs.write_file(name, 0, data).unwrap();
            assert_eq!(&fs.read_file(name, 0, data.len()).unwrap(), data, "{name}");
            let (_, mut inode) = fs.resolve(name).unwrap();
            for b in 0..Inode::blocks_for(data.len() as u64) {
                reused |= fs.inode_block(&mut inode, b, false).unwrap() == freed;
            }
        }
        assert!(reused, "block {freed} was not reused");
        let (mut fs, _) = Filesystem::mount(fs.unmount().unwrap(), clock).unwrap();
        for (name, data) in &files {
            let got = fs.read_file(name, 0, data.len()).unwrap();
            assert_eq!(&got, data, "{name} after remount");
        }
    }

    #[test]
    fn truncate_rejects_directories_and_oversize() {
        let mut fs = new_fs();
        fs.create("/d").unwrap();
        assert_eq!(fs.truncate("/d", 0), Err(FsError::IsADirectory));
        fs.create_file("/f").unwrap();
        assert_eq!(
            fs.truncate("/f", MAX_FILE_SIZE + 1),
            Err(FsError::FileTooLarge)
        );
    }

    #[test]
    fn unlink_frees_space() {
        let mut fs = new_fs();
        let before = fs.stats();
        fs.create_file("/tmp_file").unwrap();
        fs.write_file("/tmp_file", 0, &vec![1u8; 20_000]).unwrap();
        assert!(fs.stats().free_blocks < before.free_blocks);
        fs.unlink("/tmp_file").unwrap();
        let after = fs.stats();
        assert_eq!(after.free_blocks, before.free_blocks);
        assert_eq!(after.free_inodes, before.free_inodes);
        assert!(!fs.exists("/tmp_file"));
    }

    #[test]
    fn unlink_nonempty_dir_refused() {
        let mut fs = new_fs();
        fs.create("/d").unwrap();
        fs.create_file("/d/f").unwrap();
        assert_eq!(fs.unlink("/d"), Err(FsError::DirectoryNotEmpty));
        fs.unlink("/d/f").unwrap();
        fs.unlink("/d").unwrap();
        assert!(!fs.exists("/d"));
    }

    #[test]
    fn crash_before_commit_loses_uncommitted_metadata() {
        let clock = Clock::new();
        let mut fs = Filesystem::format(MemDisk::new(1 << 17), clock.clone()).unwrap();
        fs.create_file("/durable").unwrap();
        fs.commit().unwrap();
        fs.create_file("/volatile").unwrap();
        // Crash: steal the device without unmounting.
        let dev = {
            let mut dev_out = MemDisk::new(1);
            std::mem::swap(&mut dev_out, fs.device_mut());
            drop(fs);
            dev_out
        };
        let (mut fs2, _) = Filesystem::mount(dev, clock).unwrap();
        assert!(fs2.exists("/durable"));
        assert!(!fs2.exists("/volatile"));
        assert_eq!(fs2.fsck().unwrap(), Vec::<String>::new());
    }

    #[test]
    fn journal_replay_after_lost_checkpoint() {
        // Commit writes journal records before home locations; verify the
        // records are sufficient by replaying onto a device whose home
        // blocks were clobbered (tested in journal.rs at block level; here
        // end-to-end through mount()).
        let clock = Clock::new();
        let mut fs = Filesystem::format(MemDisk::new(1 << 17), clock.clone()).unwrap();
        fs.create_file("/x").unwrap();
        fs.write_file("/x", 0, b"payload").unwrap();
        fs.commit().unwrap();
        let dev = fs.unmount().unwrap();
        let (mut fs2, _) = Filesystem::mount(dev, clock).unwrap();
        assert_eq!(fs2.read_file("/x", 0, 7).unwrap(), b"payload");
    }

    #[test]
    fn blocked_commit_aborts_filesystem_readonly() {
        let clock = Clock::new();
        let disk = MemDisk::new(1 << 17);
        let mut fs = Filesystem::format(
            ChaosInjector::new(disk, ChaosPlan::quiet(), SimRng::seeded(0)),
            clock.clone(),
        )
        .unwrap();
        fs.create_file("/victim").unwrap();
        fs.write_file("/victim", 0, b"before attack").unwrap();
        fs.commit().unwrap();

        // The attack begins: writes block (reads of cached metadata would
        // still be served by the page cache on a real system).
        fs.device_mut()
            .set_plan(ChaosPlan::fail_writes(IoError::NoResponse));
        // Buffered writes still succeed — applications don't notice yet —
        // and the dirty page is readable (page-cache semantics) before it
        // ever reaches the device.
        fs.write_file("/victim", 0, b"dirty page data").unwrap();
        fs.create_file("/during").unwrap();
        assert_eq!(fs.read_file("/victim", 0, 64).unwrap(), b"dirty page data");
        let t0 = clock.now();
        let err = fs.commit().unwrap_err();
        assert_eq!(err, FsError::JournalAborted { errno: -5 });
        assert_eq!(fs.state(), FsState::Aborted { errno: -5 });
        let waited = (clock.now() - t0).as_secs_f64();
        assert!((74.0..80.0).contains(&waited), "waited {waited}");

        // Writes now fail instantly with the JBD error; reads still work
        // (the injector is still failing, so stop it first — remount-ro
        // semantics are about the fs state, not the device).
        fs.device_mut().set_plan(ChaosPlan::quiet());
        assert_eq!(
            fs.create_file("/after"),
            Err(FsError::JournalAborted { errno: -5 })
        );
        assert_eq!(
            fs.write_file("/victim", 0, b"x"),
            Err(FsError::JournalAborted { errno: -5 })
        );
        assert!(fs.read_file("/victim", 0, 64).is_ok());
    }

    #[test]
    fn tick_commits_on_interval() {
        let clock = Clock::new();
        let mut fs = Filesystem::format(MemDisk::new(1 << 17), clock.clone()).unwrap();
        fs.create_file("/f").unwrap();
        assert_eq!(fs.stats().journal_commits, 0);
        fs.tick(clock.now()).unwrap();
        assert_eq!(fs.stats().journal_commits, 0); // interval not elapsed
        clock.advance(SimDuration::from_secs(5));
        fs.tick(clock.now()).unwrap();
        assert_eq!(fs.stats().journal_commits, 1);
    }

    #[test]
    fn aborted_state_survives_remount() {
        let clock = Clock::new();
        let disk = MemDisk::new(1 << 17);
        let mut fs = Filesystem::format(
            ChaosInjector::new(disk, ChaosPlan::quiet(), SimRng::seeded(0)),
            clock.clone(),
        )
        .unwrap();
        fs.create_file("/f").unwrap();
        fs.device_mut()
            .set_plan(ChaosPlan::fail_all(IoError::NoResponse));
        // Superblock error-mark write also fails (device dead) — that is
        // fine; stop the fault before remounting to model the attack
        // ending.
        let _ = fs.commit();
        fs.device_mut().set_plan(ChaosPlan::quiet());
        // Mark was best-effort and failed; simulate the kernel retrying
        // the error mark once the device recovers, as ext4 does from its
        // error work queue.
        let _ = fs.commit(); // still aborted, returns error
        assert_eq!(fs.state(), FsState::Aborted { errno: -5 });
    }

    /// One footprint cycle: create, write 64 KiB (through the indirect
    /// block), commit, unlink, commit. Returns the device footprint
    /// between the unlink and its commit.
    fn churn(fs: &mut Filesystem<MemDisk>, data: &[u8], disable_discards: bool) -> usize {
        fs.create_file("/churn").unwrap();
        fs.write_file("/churn", 0, data).unwrap();
        if disable_discards {
            fs.freed.clear();
        }
        fs.commit().unwrap();
        let before = fs.dev.blocks_touched();
        fs.unlink("/churn").unwrap();
        // Freed, not yet committed: a crash now must still find the file.
        assert_eq!(fs.dev.blocks_touched(), before, "discarded before commit");
        if disable_discards {
            fs.freed.clear();
        }
        fs.commit().unwrap();
        before
    }

    fn churn_data() -> Vec<u8> {
        (0..64u32 << 10).map(|i| (i % 251) as u8 + 1).collect()
    }

    #[test]
    fn freed_blocks_leave_the_device_and_the_cache() {
        let mut fs = new_fs();
        let data = churn_data();
        // The journal region plus a few metadata blocks: without discards
        // the device grows by the file's 136 sectors every cycle.
        let bound = (fs.sb.journal_blocks + 64) * SECTORS_PER_FS_BLOCK;
        for _ in 0..200 {
            let live = churn(&mut fs, &data, false);
            // The file's 17 blocks (136 sectors) are on the device while
            // it exists ...
            assert!(live >= 136, "{live}");
            // ... and gone once its unlink commits.
            let touched = fs.dev.blocks_touched() as u64;
            assert!(touched <= bound, "{touched} sectors stored");
            assert!(fs.cache.len() < 64, "{} pages cached", fs.cache.len());
            assert!(fs.cache_order.len() <= 2 * fs.cache.len() + 64);
        }
    }

    #[test]
    fn capped_cache_keeps_freed_blocks_in_fifo_order() {
        let run = |disable_discards: bool| {
            let clock = Clock::new();
            let dev = MemDisk::with_latency(1 << 17, clock.clone(), SimDuration::from_micros(100));
            let mut fs = Filesystem::format(dev, clock.clone()).unwrap();
            fs.set_cache_limit(Some(8));
            let data = churn_data();
            let mut states = Vec::new();
            for _ in 0..20 {
                churn(&mut fs, &data, disable_discards);
                fs.create_file("/keep").ok();
                fs.read_file("/keep", 0, 1).unwrap();
                states.push((fs.cache.clone(), fs.cache_order.clone(), clock.now()));
            }
            states
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn stats_track_usage() {
        let mut fs = new_fs();
        let s0 = fs.stats();
        fs.create_file("/f").unwrap();
        fs.write_file("/f", 0, &vec![0u8; 8192]).unwrap();
        let s1 = fs.stats();
        assert_eq!(s0.free_inodes - s1.free_inodes, 1);
        // Two data blocks for the file plus the root directory's first
        // content block (it was empty before the create).
        assert_eq!(s0.free_blocks - s1.free_blocks, 3);
        assert_eq!(s1.total_blocks, s0.total_blocks);
    }
}
