//! Model-based property testing for the LSM store: random mutation/query
//! sequences against a `BTreeMap` model, across flushes, compactions,
//! batches, scans, and a full sync + crash + reopen cycle.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use deepnote_blockdev::MemDisk;
use deepnote_kv::{Db, DbConfig, WriteBatch};
use deepnote_sim::{Clock, SimDuration};
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    Put(u8, Vec<u8>),
    Delete(u8),
    Get(u8),
    Batch(Vec<(u8, Option<Vec<u8>>)>),
    Scan(u8, u8),
    Flush,
    Compact,
}

fn key(k: u8) -> Vec<u8> {
    format!("key{k:03}").into_bytes()
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), proptest::collection::vec(any::<u8>(), 0..64))
            .prop_map(|(k, v)| Op::Put(k, v)),
        any::<u8>().prop_map(Op::Delete),
        any::<u8>().prop_map(Op::Get),
        proptest::collection::vec(
            (
                any::<u8>(),
                proptest::option::of(proptest::collection::vec(any::<u8>(), 0..32))
            ),
            1..8
        )
        .prop_map(Op::Batch),
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Op::Scan(a.min(b), a.max(b))),
        Just(Op::Flush),
        Just(Op::Compact),
    ]
}

fn tight_config() -> DbConfig {
    DbConfig {
        memtable_limit_bytes: 2 << 10, // flush constantly
        wal_sync_every_ops: 16,
        wal_patience: SimDuration::from_secs(81),
    }
}

fn apply(db: &mut Db<MemDisk>, model: &mut BTreeMap<Vec<u8>, Vec<u8>>, op: &Op) {
    match op {
        Op::Put(k, v) => {
            db.put(&key(*k), v).unwrap();
            model.insert(key(*k), v.clone());
        }
        Op::Delete(k) => {
            db.delete(&key(*k)).unwrap();
            model.remove(&key(*k));
        }
        Op::Get(k) => {
            let got = db.get(&key(*k)).unwrap();
            assert_eq!(got.as_ref(), model.get(&key(*k)), "get({k})");
        }
        Op::Batch(entries) => {
            let mut batch = WriteBatch::new();
            for (k, v) in entries {
                match v {
                    Some(v) => {
                        batch.put(&key(*k), v);
                        model.insert(key(*k), v.clone());
                    }
                    None => {
                        batch.delete(&key(*k));
                        model.remove(&key(*k));
                    }
                }
            }
            db.write(batch).unwrap();
        }
        Op::Scan(lo, hi) => {
            let got = db.scan(&key(*lo), &key(*hi)).unwrap();
            let expected: Vec<(Vec<u8>, Vec<u8>)> = model
                .range(key(*lo)..key(*hi))
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect();
            assert_eq!(got, expected, "scan({lo}, {hi})");
        }
        Op::Flush => db.flush().unwrap(),
        Op::Compact => db.compact().unwrap(),
    }
}

fn check_all(db: &mut Db<MemDisk>, model: &BTreeMap<Vec<u8>, Vec<u8>>) {
    for (k, v) in model {
        assert_eq!(db.get(k).unwrap().as_ref(), Some(v), "final get {k:?}");
    }
    // Full scan equals the model.
    let got = db.scan(b"key000", b"key999").unwrap();
    let expected: Vec<(Vec<u8>, Vec<u8>)> =
        model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
    assert_eq!(got, expected, "full scan");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The store agrees with a BTreeMap through arbitrary op sequences,
    /// and again after sync + crash + reopen.
    #[test]
    fn store_matches_model(ops in proptest::collection::vec(op_strategy(), 1..80)) {
        let clock = Clock::new();
        let mut db = Db::create_with(MemDisk::new(1 << 19), clock.clone(), tight_config()).unwrap();
        let mut model = BTreeMap::new();
        for op in &ops {
            apply(&mut db, &mut model, op);
        }
        check_all(&mut db, &model);

        // Make the tail durable, then crash (no close) and reopen.
        db.sync_wal().unwrap();
        let dev = {
            let mut out = MemDisk::new(1);
            std::mem::swap(&mut out, db.filesystem_mut().device_mut());
            out
        };
        let mut db2 = Db::open_with(dev, clock, tight_config()).unwrap();
        check_all(&mut db2, &model);
    }
}

#[test]
fn regression_delete_survives_compaction_and_reopen() {
    let clock = Clock::new();
    let mut db = Db::create_with(MemDisk::new(1 << 19), clock.clone(), tight_config()).unwrap();
    db.put(&key(1), b"v1").unwrap();
    db.flush().unwrap();
    db.delete(&key(1)).unwrap();
    db.flush().unwrap();
    db.compact().unwrap();
    assert_eq!(db.get(&key(1)).unwrap(), None);
    db.sync_wal().unwrap();
    let dev = db.close().unwrap();
    let mut db2 = Db::open_with(dev, clock, tight_config()).unwrap();
    assert_eq!(db2.get(&key(1)).unwrap(), None);
}
