//! Model-based property testing: arbitrary operation sequences applied to
//! the real filesystem and to a trivial in-memory model must agree — on
//! every intermediate result and on the final state, including across a
//! crash (remount without a final commit: the last committed state) and
//! a commit + remount cycle.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use deepnote_blockdev::MemDisk;
use deepnote_fs::{Filesystem, FsError, FS_BLOCK_SIZE};
use deepnote_sim::Clock;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The operations the fuzzer may issue. Paths are drawn from a small
/// fixed pool so that operations actually collide.
#[derive(Debug, Clone)]
enum Op {
    CreateFile(usize),
    Mkdir(usize),
    Write(usize, u32, Vec<u8>),
    Read(usize, u32, u16),
    Unlink(usize),
    Rename(usize, usize),
    Truncate(usize, u32),
    Commit,
}

const POOL: [&str; 6] = ["/a", "/b", "/dir/x", "/dir/y", "/dir", "/c"];

/// Offsets reach past the 48 KiB the 12 direct pointers cover, so files
/// grow, read and shrink through their indirect block.
const SPAN: u32 = 64 << 10;

fn op_strategy() -> impl Strategy<Value = Op> {
    let path = 0..POOL.len();
    prop_oneof![
        path.clone().prop_map(Op::CreateFile),
        path.clone().prop_map(Op::Mkdir),
        (
            path.clone(),
            0..SPAN,
            proptest::collection::vec(any::<u8>(), 1..300)
        )
            .prop_map(|(p, off, data)| Op::Write(p, off, data)),
        (path.clone(), 0..SPAN + 1_000, 1u16..500).prop_map(|(p, o, l)| Op::Read(p, o, l)),
        path.clone().prop_map(Op::Unlink),
        (path.clone(), path.clone()).prop_map(|(a, b)| Op::Rename(a, b)),
        (path, 0..SPAN + 1_000).prop_map(|(p, s)| Op::Truncate(p, s)),
        Just(Op::Commit),
    ]
}

/// The reference model: a map of paths to either directory or file bytes.
#[derive(Debug, Clone, Default)]
struct Model {
    files: BTreeMap<String, Vec<u8>>,
    dirs: BTreeMap<String, ()>,
}

impl Model {
    fn new() -> Self {
        let mut m = Model::default();
        m.dirs.insert("/".into(), ());
        m
    }

    fn parent_of(path: &str) -> String {
        match path.rfind('/') {
            Some(0) => "/".to_string(),
            Some(i) => path[..i].to_string(),
            None => "/".to_string(),
        }
    }

    fn exists(&self, path: &str) -> bool {
        self.files.contains_key(path) || self.dirs.contains_key(path)
    }

    fn has_children(&self, dir: &str) -> bool {
        let prefix = format!("{}/", dir.trim_end_matches('/'));
        self.files
            .keys()
            .chain(self.dirs.keys())
            .any(|p| p.starts_with(&prefix))
    }

    fn create_file(&mut self, path: &str) -> Result<(), &'static str> {
        if self.exists(path) {
            return Err("exists");
        }
        if !self.dirs.contains_key(&Self::parent_of(path)) {
            return Err("noparent");
        }
        self.files.insert(path.to_string(), Vec::new());
        Ok(())
    }

    fn mkdir(&mut self, path: &str) -> Result<(), &'static str> {
        if self.exists(path) {
            return Err("exists");
        }
        let parent = Self::parent_of(path);
        if !self.dirs.contains_key(&parent) {
            return Err("noparent");
        }
        self.dirs.insert(path.to_string(), ());
        Ok(())
    }

    fn write(&mut self, path: &str, offset: usize, data: &[u8]) -> Result<(), &'static str> {
        if self.dirs.contains_key(path) {
            return Err("isdir");
        }
        let Some(content) = self.files.get_mut(path) else {
            return Err("nofile");
        };
        if content.len() < offset + data.len() {
            content.resize(offset + data.len(), 0);
        }
        content[offset..offset + data.len()].copy_from_slice(data);
        Ok(())
    }

    fn read(&self, path: &str, offset: usize, len: usize) -> Result<Vec<u8>, &'static str> {
        if self.dirs.contains_key(path) {
            return Err("isdir");
        }
        let Some(content) = self.files.get(path) else {
            return Err("nofile");
        };
        if offset >= content.len() {
            return Ok(Vec::new());
        }
        let end = (offset + len).min(content.len());
        Ok(content[offset..end].to_vec())
    }

    fn unlink(&mut self, path: &str) -> Result<(), &'static str> {
        if self.files.remove(path).is_some() {
            return Ok(());
        }
        if self.dirs.contains_key(path) {
            if self.has_children(path) {
                return Err("notempty");
            }
            self.dirs.remove(path);
            return Ok(());
        }
        Err("nofile")
    }

    fn rename(&mut self, from: &str, to: &str) -> Result<(), &'static str> {
        if !self.exists(from) {
            return Err("nofile");
        }
        if self.exists(to) {
            return Err("exists");
        }
        if !self.dirs.contains_key(&Self::parent_of(to)) {
            return Err("noparent");
        }
        // Refuse to move a directory into itself (the fixed pool cannot
        // construct that case, but keep the model honest).
        if from == "/dir" && to.starts_with("/dir/") {
            return Err("into-self");
        }
        if let Some(content) = self.files.remove(from) {
            self.files.insert(to.to_string(), content);
        } else {
            self.dirs.remove(from);
            self.dirs.insert(to.to_string(), ());
            // Move children: both files and subdirectories.
            let prefix = format!("{from}/");
            let moved_files: Vec<(String, Vec<u8>)> = self
                .files
                .iter()
                .filter(|(k, _)| k.starts_with(&prefix))
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect();
            for (k, v) in moved_files {
                self.files.remove(&k);
                self.files.insert(format!("{to}/{}", &k[prefix.len()..]), v);
            }
            let moved_dirs: Vec<String> = self
                .dirs
                .keys()
                .filter(|k| k.starts_with(&prefix))
                .cloned()
                .collect();
            for k in moved_dirs {
                self.dirs.remove(&k);
                self.dirs.insert(format!("{to}/{}", &k[prefix.len()..]), ());
            }
        }
        Ok(())
    }

    fn truncate(&mut self, path: &str, size: usize) -> Result<(), &'static str> {
        if self.dirs.contains_key(path) {
            return Err("isdir");
        }
        let Some(content) = self.files.get_mut(path) else {
            return Err("nofile");
        };
        content.resize(size, 0);
        Ok(())
    }
}

fn apply(fs: &mut Filesystem<MemDisk>, model: &mut Model, op: &Op) {
    match op {
        Op::CreateFile(p) => {
            let path = POOL[*p];
            let real = fs.create_file(path);
            let modeled = model.create_file(path);
            assert_eq!(
                real.is_ok(),
                modeled.is_ok(),
                "create_file({path}): {real:?} vs {modeled:?}"
            );
        }
        Op::Mkdir(p) => {
            let path = POOL[*p];
            let real = fs.create(path);
            let modeled = model.mkdir(path);
            assert_eq!(
                real.is_ok(),
                modeled.is_ok(),
                "mkdir({path}): {real:?} vs {modeled:?}"
            );
        }
        Op::Write(p, off, data) => {
            let path = POOL[*p];
            let real = fs.write_file(path, *off as u64, data);
            let modeled = model.write(path, *off as usize, data);
            assert_eq!(
                real.is_ok(),
                modeled.is_ok(),
                "write({path}): {real:?} vs {modeled:?}"
            );
        }
        Op::Read(p, off, len) => {
            let path = POOL[*p];
            let real = fs.read_file(path, *off as u64, *len as usize);
            let modeled = model.read(path, *off as usize, *len as usize);
            match (&real, &modeled) {
                (Ok(r), Ok(m)) => assert_eq!(r, m, "read({path}) content mismatch"),
                (r, m) => assert_eq!(r.is_ok(), m.is_ok(), "read({path}): {r:?} vs {m:?}"),
            }
        }
        Op::Unlink(p) => {
            let path = POOL[*p];
            let real = fs.unlink(path);
            let modeled = model.unlink(path);
            assert_eq!(
                real.is_ok(),
                modeled.is_ok(),
                "unlink({path}): {real:?} vs {modeled:?}"
            );
        }
        Op::Rename(a, b) => {
            let from = POOL[*a];
            let to = POOL[*b];
            if from == to {
                return;
            }
            let real = fs.rename(from, to);
            let modeled = model.rename(from, to);
            assert_eq!(
                real.is_ok(),
                modeled.is_ok(),
                "rename({from},{to}): {real:?} vs {modeled:?}"
            );
        }
        Op::Truncate(p, size) => {
            let path = POOL[*p];
            let real = fs.truncate(path, *size as u64);
            let modeled = model.truncate(path, *size as usize);
            assert_eq!(
                real.is_ok(),
                modeled.is_ok(),
                "truncate({path}): {real:?} vs {modeled:?}"
            );
        }
        Op::Commit => {
            fs.commit().expect("commit on a healthy device");
        }
    }
}

fn check_final_state(fs: &mut Filesystem<MemDisk>, model: &Model) {
    for (path, content) in &model.files {
        let got = fs
            .read_file(path, 0, content.len().max(1))
            .unwrap_or_else(|e| panic!("final read of {path}: {e}"));
        assert_eq!(&got, content, "final content mismatch at {path}");
        assert_eq!(
            fs.stat(path).unwrap().size,
            content.len() as u64,
            "final size mismatch at {path}"
        );
    }
    for path in model.dirs.keys() {
        if path != "/" {
            assert!(fs.exists(path), "directory {path} missing");
        }
    }
    assert_eq!(fs.fsck().unwrap(), Vec::<String>::new(), "fsck problems");
}

/// Runs `ops` on `fs` and on `model`, which holds `fs`'s committed tree:
/// the two never disagree; a crash recovers exactly the state of the last
/// commit, and the final state survives a commit + remount.
fn matches_model(mut fs: Filesystem<MemDisk>, clock: Clock, mut model: Model, ops: &[Op]) {
    let mut committed = (model.clone(), 0);
    for (i, op) in ops.iter().enumerate() {
        apply(&mut fs, &mut model, op);
        if matches!(op, Op::Commit) {
            committed = (model.clone(), i + 1);
        }
    }
    check_final_state(&mut fs, &model);

    // Crash: take the device without a final commit. The remount must
    // find the last committed state exactly, so no block freed since
    // then may have been forgotten.
    let (mut model, tail) = committed;
    let (mut fs, _) = Filesystem::mount(fs.into_device(), clock.clone()).unwrap();
    check_final_state(&mut fs, &model);

    // Redo the uncommitted tail on the recovered filesystem, then
    // remount: committed state must equal the model exactly (we commit
    // first, so nothing is lost).
    for op in &ops[tail..] {
        apply(&mut fs, &mut model, op);
    }
    fs.commit().unwrap();
    let dev = fs.unmount().unwrap();
    let (mut fs2, _) = Filesystem::mount(dev, clock).unwrap();
    check_final_state(&mut fs2, &model);
}

/// The smallest device the filesystem formats: 1,021 data blocks.
const SMALL_DEVICE: u64 = 20_480;

/// Wraps the allocator's rotating hint inside the running transaction,
/// leaving the tree as it was: `STAGED` directory blocks are staged after
/// the tree's blocks, fillers take every block after them, and all of it
/// is unlinked again. The next allocations come round to the staged and
/// freed blocks first.
fn wrap_allocator(fs: &mut Filesystem<MemDisk>) {
    const STAGED: usize = 16;
    for i in 0..STAGED {
        fs.create(&format!("/z{i}")).unwrap();
        fs.create_file(&format!("/z{i}/f")).unwrap();
    }
    let mut fillers = Vec::new();
    while fs.stats().free_blocks > 0 {
        let name = format!("/fill{}", fillers.len());
        fs.create_file(&name).unwrap();
        // At most the 12 direct blocks: no indirect block to account for.
        let blocks = fs.stats().free_blocks.min(12) as usize;
        fs.write_file(&name, 0, &vec![0xEE; blocks * FS_BLOCK_SIZE])
            .unwrap();
        fillers.push(name);
    }
    for name in &fillers {
        fs.unlink(name).unwrap();
    }
    for i in 0..STAGED {
        fs.unlink(&format!("/z{i}/f")).unwrap();
        fs.unlink(&format!("/z{i}")).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random op sequences on a roomy device.
    #[test]
    fn filesystem_matches_model(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        let clock = Clock::new();
        let fs = Filesystem::format(MemDisk::new(1 << 17), clock.clone()).unwrap();
        matches_model(fs, clock, Model::new(), &ops);
    }

    /// The same op sequences on the smallest device, from a committed
    /// tree holding every pool path and with the allocator wrapped: the
    /// first write to a file reuses a block its transaction freed, so a
    /// freed block's staged image must not outlive it.
    #[test]
    fn filesystem_matches_model_after_the_allocator_wraps(
        ops in proptest::collection::vec(op_strategy(), 1..60)
    ) {
        let clock = Clock::new();
        let mut fs = Filesystem::format(MemDisk::new(SMALL_DEVICE), clock.clone()).unwrap();
        let mut model = Model::new();
        let tree = [
            Op::Mkdir(4), // /dir
            Op::CreateFile(0),
            Op::CreateFile(1),
            Op::CreateFile(2),
            Op::CreateFile(3),
            Op::CreateFile(5),
            Op::Commit,
        ];
        for op in &tree {
            apply(&mut fs, &mut model, op);
        }
        wrap_allocator(&mut fs);
        matches_model(fs, clock, model, &ops);
    }
}

#[test]
fn regression_rename_then_write() {
    // A specific interleaving that once mattered: rename a file, write
    // through the new name, unlink the old directory entry's sibling.
    let clock = Clock::new();
    let mut fs = Filesystem::format(MemDisk::new(1 << 17), clock).unwrap();
    let mut model = Model::new();
    let ops = [
        Op::Mkdir(4),      // /dir
        Op::CreateFile(2), // /dir/x
        Op::Write(2, 100, vec![7u8; 64]),
        Op::Rename(2, 3), // /dir/x -> /dir/y
        Op::Write(3, 0, vec![9u8; 32]),
        Op::Commit,
        Op::Unlink(3),
        Op::Unlink(4),
    ];
    for op in &ops {
        apply(&mut fs, &mut model, op);
    }
    check_final_state(&mut fs, &model);
}

#[test]
fn regression_truncate_through_the_indirect_block() {
    // A file shrunk below the 48 KiB of its direct pointers must not keep
    // pointers to the blocks it freed: when it grows again, those slots
    // would hand back blocks another file may now own, and its unlink
    // would free them a second time.
    let clock = Clock::new();
    let mut fs = Filesystem::format(MemDisk::new(1 << 17), clock).unwrap();
    let mut model = Model::new();
    let ops = [
        Op::CreateFile(0), // /a
        Op::Write(0, 0, vec![1u8; 80 << 10]),
        Op::Commit,
        Op::Truncate(0, 8 << 10),
        Op::Commit,
        Op::Write(0, 52 << 10, vec![2u8; 4 << 10]),
        Op::CreateFile(1), // /b
        Op::Write(1, 0, vec![3u8; 80 << 10]),
        Op::Unlink(0),
    ];
    for op in &ops {
        apply(&mut fs, &mut model, op);
    }
    check_final_state(&mut fs, &model);
}

#[test]
fn error_kinds_match_expectations() {
    let clock = Clock::new();
    let mut fs = Filesystem::format(MemDisk::new(1 << 17), clock).unwrap();
    assert_eq!(fs.read_file("/nope", 0, 1), Err(FsError::NotFound));
    fs.create("/d").unwrap();
    assert_eq!(fs.read_file("/d", 0, 1), Err(FsError::IsADirectory));
    assert_eq!(fs.write_file("/d", 0, b"x"), Err(FsError::IsADirectory));
}
