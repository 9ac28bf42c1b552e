//! Write-ahead log.
//!
//! §2.3 of the paper sketches the "naïve" fault-tolerance approach for an
//! architecture-less DBMS: ACs send log *events* to durable storage; on
//! failure the DBMS stops and replays the log. This module is that log: an
//! append-only sequence of records (kept in memory, optionally serialized
//! to the tuple wire format to mimic durable bytes), consumed by
//! [`crate::recovery`].
//!
//! Since PR 8 the record types and their codec live in
//! [`anydb_common::repl`] (re-exported here): log records are also the
//! payload of the replication wire protocol — a primary ships them to a
//! follower in the same encoding it would write to disk. This module
//! keeps the in-memory container plus the replication-facing views: the
//! tail from an LSN (what a catch-up ships) and verbatim extension with
//! shipped records (how a follower's log mirrors its primary's).

use std::sync::atomic::{AtomicU64, Ordering};

use anydb_common::repl::{decode_records_from, encode_records_into};
use anydb_common::{DbError, DbResult, TxnId};
use bytes::{Buf, Bytes, BytesMut};
use parking_lot::Mutex;

pub use anydb_common::repl::{LogOp, LogRecord};

/// An append-only, thread-safe write-ahead log.
///
/// Invariant: `records` is strictly LSN-ordered. Appends assign the LSN
/// and push under the same lock, and shipped records are only ever
/// appended past the current tail, so readers never sort.
#[derive(Default)]
pub struct Wal {
    records: Mutex<Vec<LogRecord>>,
    next_lsn: AtomicU64,
}

impl Wal {
    /// Empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one record, returning its LSN.
    pub fn append(&self, txn: TxnId, op: LogOp) -> u64 {
        let mut records = self.records.lock();
        let lsn = self.next_lsn.fetch_add(1, Ordering::Relaxed);
        records.push(LogRecord { lsn, txn, op });
        lsn
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.lock().len()
    }

    /// True if nothing has been logged.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The next LSN this log will assign — equivalently, one past the
    /// highest LSN it holds. A follower sends this as its
    /// `CatchupFrom` point: everything below is already applied locally.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn.load(Ordering::Relaxed)
    }

    /// Snapshot of all records ordered by LSN.
    pub fn snapshot(&self) -> Vec<LogRecord> {
        self.records.lock().clone()
    }

    /// The log tail: every record with `lsn >= from`, ordered by LSN.
    /// This is what a primary ships to answer a `CatchupFrom { from }`,
    /// and what a shard node ships each loop iteration, so it costs a
    /// binary search plus the tail's clones, not a pass over the log.
    pub fn tail_from(&self, from: u64) -> Vec<LogRecord> {
        let records = self.records.lock();
        let start = records.partition_point(|r| r.lsn < from);
        records[start..].to_vec()
    }

    /// Extends the log with records shipped from a primary, keeping their
    /// original LSNs (a follower's log is a verbatim mirror, not a
    /// re-numbering). `records` come LSN-ordered, as every tail does;
    /// records this log already holds (an overlapping retransmitted
    /// tail) are skipped. Advances `next_lsn` past the highest appended
    /// LSN so a later promotion continues the primary's sequence instead
    /// of reusing it.
    pub fn extend_shipped(&self, records: &[LogRecord]) {
        if records.is_empty() {
            return;
        }
        let mut guard = self.records.lock();
        let mut next = self.next_lsn.load(Ordering::Relaxed);
        for r in records {
            if r.lsn < next {
                continue;
            }
            next = r.lsn + 1;
            guard.push(r.clone());
        }
        self.next_lsn.store(next, Ordering::Relaxed);
    }

    /// Serializes the whole log to bytes ("what would hit disk") in the
    /// [`anydb_common::repl`] record encoding.
    pub fn serialize(&self) -> Bytes {
        let records = self.snapshot();
        let mut buf = BytesMut::new();
        encode_records_into(&records, &mut buf);
        buf.freeze()
    }

    /// Parses a serialized log back into records. Corrupt or truncated
    /// bytes are a [`DbError::Codec`] — never a panic (the same hardened
    /// codec rejects torn batches on the replication wire).
    pub fn deserialize(mut bytes: Bytes) -> DbResult<Vec<LogRecord>> {
        let records = decode_records_from(&mut bytes)?;
        if bytes.remaining() != 0 {
            return Err(DbError::Codec("trailing bytes after log"));
        }
        Ok(records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anydb_common::{PartitionId, Rid, TableId, Tuple, Value};
    use bytes::BufMut;

    fn tuple(i: i64) -> Tuple {
        Tuple::new(vec![Value::Int(i), Value::str("x")])
    }

    #[test]
    fn append_assigns_monotone_lsns() {
        let wal = Wal::new();
        let a = wal.append(TxnId(1), LogOp::Commit);
        let b = wal.append(TxnId(2), LogOp::Abort);
        assert!(a < b);
        assert_eq!(wal.len(), 2);
        assert_eq!(wal.next_lsn(), 2);
    }

    #[test]
    fn serialize_roundtrip() {
        let wal = Wal::new();
        wal.append(
            TxnId(1),
            LogOp::Insert {
                table: TableId(0),
                partition: PartitionId(1),
                slot: 2,
                tuple: tuple(5),
            },
        );
        wal.append(
            TxnId(1),
            LogOp::Update {
                rid: Rid::new(TableId(0), PartitionId(1), 2),
                after: tuple(6),
            },
        );
        wal.append(TxnId(1), LogOp::Commit);
        let bytes = wal.serialize();
        let records = Wal::deserialize(bytes).unwrap();
        assert_eq!(records, wal.snapshot());
    }

    #[test]
    fn deserialize_rejects_garbage() {
        assert!(Wal::deserialize(Bytes::from_static(&[1, 2, 3])).is_err());
        let mut buf = BytesMut::new();
        buf.put_u64(1); // one record promised
        buf.put_u64(0);
        buf.put_u64(0);
        buf.put_u8(9); // bogus tag
        assert_eq!(
            Wal::deserialize(buf.freeze()),
            Err(DbError::Codec("unknown log op tag"))
        );
    }

    #[test]
    fn tail_from_returns_suffix() {
        let wal = Wal::new();
        for t in 0..5u64 {
            wal.append(TxnId(t), LogOp::Commit);
        }
        let tail = wal.tail_from(3);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].lsn, 3);
        assert_eq!(tail[1].lsn, 4);
        assert!(wal.tail_from(99).is_empty());
        assert_eq!(wal.tail_from(0).len(), 5);
    }

    #[test]
    fn extend_shipped_mirrors_lsns_and_skips_overlap() {
        let primary = Wal::new();
        for t in 0..4u64 {
            primary.append(TxnId(t), LogOp::Commit);
        }
        let follower = Wal::new();
        follower.extend_shipped(&primary.tail_from(0));
        assert_eq!(follower.next_lsn(), 4);
        assert_eq!(follower.snapshot(), primary.snapshot());
        // A retransmitted overlapping tail appends nothing twice.
        follower.extend_shipped(&primary.tail_from(2));
        assert_eq!(follower.len(), 4);
        // Promotion continues the sequence rather than reusing LSN 4.
        let lsn = follower.append(TxnId(9), LogOp::Commit);
        assert_eq!(lsn, 4);
    }

    #[test]
    fn concurrent_appends_preserve_all_records() {
        let wal = std::sync::Arc::new(Wal::new());
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let wal = wal.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    wal.append(TxnId(t), LogOp::Commit);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let snap = wal.snapshot();
        assert_eq!(snap.len(), 4000);
        // LSNs are unique and sorted.
        for w in snap.windows(2) {
            assert!(w[0].lsn < w[1].lsn);
        }
    }
}
