//! Property tests hardening the WAL codec the way the scan codec is
//! hardened (PR 8 satellite): a serialized log — or a shipped record
//! batch, same encoding — must roundtrip exactly, and *no* torn prefix,
//! bit-flip, or unknown-op fuzz may ever panic the decoder. A follower
//! applies whatever bytes a faulty link delivers; its only defenses are
//! `DbError` rejections.

use anydb_common::commit::PrepOp;
use anydb_common::repl::{LogOp, ReplMsg};
use anydb_common::{DbError, PartitionId, Rid, TableId, Tuple, TxnId, Value};
use anydb_storage::Wal;
use bytes::{Buf, Bytes};
use proptest::prelude::*;

/// Builds a log of `n` records whose shapes are driven by `shape_seed`,
/// mixing all six ops (including the 2PC `Prepare`/`Decide` records a
/// sharded node logs) and both tuple value types.
fn build_wal(n: usize, shape_seed: u64) -> Wal {
    let wal = Wal::new();
    for i in 0..n {
        let txn = TxnId((shape_seed ^ i as u64) % 7);
        let op = match (shape_seed.wrapping_mul(31).wrapping_add(i as u64)) % 6 {
            0 => LogOp::Insert {
                table: TableId((i % 3) as u32),
                partition: PartitionId((i % 2) as u32),
                slot: i as u32,
                tuple: Tuple::new(vec![Value::Int(i as i64), Value::str("row")]),
            },
            1 => LogOp::Update {
                rid: Rid::new(TableId(0), PartitionId(0), i as u32),
                after: Tuple::new(vec![Value::Null, Value::Float(i as f64)]),
            },
            2 => LogOp::Commit,
            3 => LogOp::Abort,
            4 => LogOp::Prepare {
                coord: (i % 4) as u32,
                ops: (0..i % 3)
                    .map(|k| PrepOp {
                        table: TableId(k as u32),
                        tuple: Tuple::new(vec![Value::Int(k as i64), Value::Null]),
                    })
                    .collect(),
            },
            _ => LogOp::Decide {
                commit: i.is_multiple_of(2),
                parts: (0..i % 3).map(|k| k as u32).collect(),
            },
        };
        wal.append(txn, op);
    }
    wal
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Serialize/deserialize is lossless for arbitrary record mixes.
    #[test]
    fn serialized_log_roundtrips(n in 0usize..40, shape in any::<u64>()) {
        let wal = build_wal(n, shape);
        let records = Wal::deserialize(wal.serialize()).unwrap();
        prop_assert_eq!(records, wal.snapshot());
    }

    /// Every strict prefix of a serialized log is rejected with an error
    /// — never a panic, never a silent partial parse.
    #[test]
    fn every_strict_prefix_is_rejected(n in 1usize..12, shape in any::<u64>()) {
        let bytes = build_wal(n, shape).serialize();
        for cut in 0..bytes.len() {
            let got = Wal::deserialize(bytes.slice(0..cut));
            prop_assert!(got.is_err(), "prefix of {} bytes decoded", cut);
        }
    }

    /// Single-byte corruption anywhere in a serialized log either still
    /// decodes (the flipped byte was payload, e.g. a tuple int) or is
    /// rejected with a `DbError` — it never panics the decoder. This is
    /// the unknown-op fuzz: flips landing on an op tag byte produce tags
    /// 4..=255.
    #[test]
    fn bitflips_never_panic(n in 1usize..10, shape in any::<u64>(), pos_seed in any::<u64>(), flip in 1u8..=255) {
        let bytes = build_wal(n, shape).serialize();
        let pos = (pos_seed as usize) % bytes.len();
        let mut fuzzed = bytes.chunk().to_vec();
        fuzzed[pos] ^= flip;
        // Either outcome is fine; what is asserted is "no panic" plus a
        // typed error on rejection.
        match Wal::deserialize(Bytes::copy_from_slice(&fuzzed)) {
            Ok(_) => {}
            Err(DbError::Codec(_)) => {}
            Err(other) => prop_assert!(false, "unexpected error class: {other:?}"),
        }
    }

    /// The same guarantees hold for framed `ReplMsg::Records` batches —
    /// what actually crosses the replication link.
    #[test]
    fn repl_records_frame_prefixes_and_fuzz(n in 1usize..8, shape in any::<u64>(), pos_seed in any::<u64>(), flip in 1u8..=255) {
        let frame = ReplMsg::Records(build_wal(n, shape).snapshot()).encode();
        for cut in 0..frame.len() {
            prop_assert!(ReplMsg::decode(&frame.slice(0..cut)).is_err());
        }
        let pos = (pos_seed as usize) % frame.len();
        let mut fuzzed = frame.chunk().to_vec();
        fuzzed[pos] ^= flip;
        match ReplMsg::decode(&Bytes::copy_from_slice(&fuzzed)) {
            Ok(_) | Err(DbError::Codec(_)) => {}
            Err(other) => prop_assert!(false, "unexpected error class: {other:?}"),
        }
    }
}

/// The tail as the log computed it before records were kept in LSN
/// order: filter every record, then sort. `tail_from` must match it.
fn filter_and_sort(wal: &Wal, from: u64) -> Vec<anydb_common::repl::LogRecord> {
    let mut v: Vec<_> = wal
        .snapshot()
        .into_iter()
        .filter(|r| r.lsn >= from)
        .collect();
    v.sort_by_key(|r| r.lsn);
    v
}

/// `tail_from(k)` for every `k` in `0..=next_lsn + 1` equals the
/// filter-and-sort tail and holds exactly the LSNs `k..next_lsn`.
fn assert_tails_contiguous(wal: &Wal) {
    let next = wal.next_lsn();
    for k in 0..=next + 1 {
        let tail = wal.tail_from(k);
        assert_eq!(tail, filter_and_sort(wal, k), "tail_from({k})");
        let lsns: Vec<u64> = tail.iter().map(|r| r.lsn).collect();
        assert_eq!(
            lsns,
            (k.min(next)..next).collect::<Vec<_>>(),
            "tail_from({k})"
        );
    }
}

#[test]
fn tails_stay_ordered_and_contiguous_under_concurrent_appends() {
    let wal = std::sync::Arc::new(Wal::new());
    let appenders: Vec<_> = (0..4u64)
        .map(|t| {
            let wal = wal.clone();
            std::thread::spawn(move || {
                for i in 0..300u64 {
                    let op = if i % 2 == 0 {
                        LogOp::Commit
                    } else {
                        LogOp::Abort
                    };
                    wal.append(TxnId(t), op);
                }
            })
        })
        .collect();
    // A reader racing the appenders only ever sees a contiguous prefix
    // of the final log.
    let mut seen = 0;
    while seen < 1200 {
        let tail = wal.tail_from(0);
        for (i, r) in tail.iter().enumerate() {
            assert_eq!(r.lsn, i as u64, "torn or unordered tail");
        }
        seen = tail.len();
        std::thread::yield_now();
    }
    for h in appenders {
        h.join().unwrap();
    }
    assert_eq!(wal.next_lsn(), 1200);
    assert_tails_contiguous(&wal);

    // A mirror built from shipped tails, overlapping retransmits
    // included, holds the same ordered, contiguous log.
    let mirror = Wal::new();
    let mut from = 0u64;
    while from < 1200 {
        let upto = (from + 97).min(1200);
        let chunk: Vec<_> = wal
            .tail_from(from.saturating_sub(13))
            .into_iter()
            .filter(|r| r.lsn < upto)
            .collect();
        mirror.extend_shipped(&chunk);
        from = upto;
    }
    assert_eq!(mirror.snapshot(), wal.snapshot());
    assert_tails_contiguous(&mirror);

    // A crashed replica's rebuild: the serialized log truncated at the
    // replicated watermark, mirrored, then caught up from the primary.
    let watermark = 700;
    let mut kept = Wal::deserialize(wal.serialize()).unwrap();
    kept.retain(|r| r.lsn < watermark);
    let rebuilt = Wal::new();
    rebuilt.extend_shipped(&kept);
    assert_eq!(rebuilt.next_lsn(), watermark);
    assert_tails_contiguous(&rebuilt);
    rebuilt.extend_shipped(&wal.tail_from(rebuilt.next_lsn() - 5));
    assert_eq!(rebuilt.snapshot(), wal.snapshot());
    assert_tails_contiguous(&rebuilt);
}
