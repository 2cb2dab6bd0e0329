//! Atomic write batches, RocksDB-style.

use crate::record::Record;
use serde::{Deserialize, Serialize};

/// A group of mutations applied atomically: either every record reaches
/// the WAL (and therefore survives a crash together) or none do.
///
/// # Example
///
/// ```
/// use deepnote_kv::WriteBatch;
///
/// let mut batch = WriteBatch::new();
/// batch.put(b"account:alice", b"90");
/// batch.put(b"account:bob", b"110");
/// batch.delete(b"pending:transfer");
/// assert_eq!(batch.into_records().len(), 3);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct WriteBatch {
    records: Vec<Record>,
}

impl WriteBatch {
    /// An empty batch.
    pub fn new() -> Self {
        WriteBatch::default()
    }

    /// Adds a put.
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> &mut Self {
        self.records.push(Record::put(key, value));
        self
    }

    /// Adds a delete.
    pub fn delete(&mut self, key: &[u8]) -> &mut Self {
        self.records.push(Record::delete(key));
        self
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Consumes the batch into its records.
    pub fn into_records(self) -> Vec<Record> {
        self.records
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_in_order() {
        let mut b = WriteBatch::new();
        b.put(b"a", b"1").delete(b"b").put(b"c", b"3");
        assert_eq!(b.records.len(), 3);
        assert!(!b.is_empty());
        assert_eq!(b.records[0], Record::put("a", "1"));
        assert_eq!(b.records[1], Record::delete("b"));
        let records = b.into_records();
        assert_eq!(records.len(), 3);
    }

    #[test]
    fn empty_batch() {
        assert!(WriteBatch::new().is_empty());
        assert_eq!(WriteBatch::default().records.len(), 0);
    }
}
