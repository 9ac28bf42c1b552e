//! Per-layer probes: each calls one layer's public API from outside, on
//! inputs generated like the workload's (or taken from the run), inside a
//! span that counts the work items it covered.
//!
//! Every probe repeats [`REPS`] times and reports the median, so one
//! preempted repetition does not move the figure. A layer the workload
//! does not exercise is not probed on it and reads 0.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use anydb_common::metrics::Counter;
use anydb_common::{AcId, CommitMsg, LogRecord, PrepOp, ReplMsg, TxnId};
use anydb_core::component::AnyComponent;
use anydb_core::event::{Completion, DoneBatch, Event, OpEnvelope, TxnTracker};
use anydb_core::olap::{exec_q3_local, exec_q3_shared};
use anydb_core::ops::exec_whole_txn;
use anydb_core::shard::{line_tuple, LINES_TABLE};
use anydb_core::strategy::{payment_stage_groups, BatchMode};
use anydb_storage::Wal;
use anydb_stream::{Inbox, LinkSpec, SimLink};
use anydb_txn::sequencer::Sequencer;
use anydb_workload::chbench::Q3Spec;
use anydb_workload::tpcc::gen::TxnRequest;
use anydb_workload::tpcc::{NewOrderGen, NewOrderParams, PaymentGen, PaymentParams, TpccDb};
use bytes::Bytes;
use crossbeam::channel::unbounded;

use crate::engine::{EngineWorkload, Q3_WINDOWS};
use crate::run::Measure;
use crate::sharded::{ClusterState, DriveOutcome};
use crate::stats::median;
use crate::trace::{SpanId, Tracer};

/// Repetitions per probe; the median is reported.
const REPS: usize = 5;
/// Work items per repetition of the cheap probes.
const ITEMS: usize = 20_000;
/// Op batches sent to the probe AC per repetition.
const AC_BATCHES: usize = 50;
/// Transactions per op batch (the engine's in-flight window).
const AC_BATCH_TXNS: usize = 32;
/// Q3 repetitions per OLAP probe.
const Q3_REPS: usize = 7;

fn m(name: &'static str, value: f64, unit: &'static str) -> Measure {
    Measure { name, value, unit }
}

/// Times `f` over `items` work items as one span; returns ns per item.
fn per_item_ns(
    tr: &mut Tracer,
    name: &'static str,
    parent: Option<SpanId>,
    items: usize,
    f: impl FnOnce(),
) -> f64 {
    let t0 = Instant::now();
    f();
    let t1 = Instant::now();
    tr.record(name, parent, t0, t1, items as u64);
    (t1 - t0).as_nanos() as f64 / items.max(1) as f64
}

/// Median of [`REPS`] runs of `f`.
fn reps(mut f: impl FnMut() -> f64) -> f64 {
    let mut v: Vec<f64> = (0..REPS).map(|_| f()).collect();
    median(&mut v)
}

/// Payments as the workload's driver draws them.
fn payments(db: &TpccDb, w: &EngineWorkload, seed: u64, n: usize) -> Vec<PaymentParams> {
    let dist = w.kind.warehouse_dist(db.cfg.warehouses);
    let mut gen = PaymentGen::new(db.cfg.clone(), dist, seed);
    (0..n).map(|_| gen.next()).collect()
}

/// New-orders as the workload's driver draws them.
fn new_orders(db: &TpccDb, w: &EngineWorkload, seed: u64, n: usize) -> Vec<NewOrderParams> {
    let dist = w.kind.warehouse_dist(db.cfg.warehouses);
    let mut gen = NewOrderGen::new(db.cfg.clone(), dist, seed);
    (0..n).map(|_| gen.next()).collect()
}

/// Probes of the layers the engine workloads use, on the database the
/// last round left (after its oracle ran: the probes write to it).
pub(crate) fn engine_layers(
    tr: &mut Tracer,
    parent: Option<SpanId>,
    w: &EngineWorkload,
    db: &Arc<TpccDb>,
    seed: u64,
) -> Vec<Measure> {
    let mut out = Vec::new();
    let dist = w.kind.warehouse_dist(db.cfg.warehouses);
    let pays = payments(db, w, seed ^ 0x9a7, ITEMS);

    let mut gen = PaymentGen::new(db.cfg.clone(), dist, seed);
    out.push(m(
        "workload.payment_gen_ns",
        reps(|| {
            per_item_ns(tr, "workload.payment_gen", parent, ITEMS, || {
                for _ in 0..ITEMS {
                    black_box(gen.next());
                }
            })
        }),
        "ns",
    ));
    out.push(m(
        "stream.inbox_ns_per_event",
        reps(|| inbox_transfer_ns(tr, parent)),
        "ns",
    ));
    let mut txn = 1u64 << 40;
    out.push(m(
        "ops.payment_ns",
        reps(|| {
            per_item_ns(tr, "ops.exec_whole_txn.payment", parent, pays.len(), || {
                for p in &pays {
                    txn += 1;
                    let req = TxnRequest::Payment(p.clone());
                    black_box(exec_whole_txn(db, TxnId(txn), &req, None).is_ok());
                }
            })
        }),
        "ns",
    ));

    if w.kind.is_skewed() {
        out.push(m(
            "strategy.stage_groups_ns",
            reps(|| {
                per_item_ns(
                    tr,
                    "strategy.payment_stage_groups",
                    parent,
                    pays.len(),
                    || {
                        for p in &pays {
                            black_box(payment_stage_groups(p));
                        }
                    },
                )
            }),
            "ns",
        ));
        let seq = Sequencer::new(db.cfg.warehouses as usize);
        let domains: Vec<usize> = pays.iter().map(|p| (p.w_id - 1) as usize).collect();
        out.push(m(
            "txn.stamp_ns",
            reps(|| {
                per_item_ns(tr, "txn.sequencer_stamp", parent, domains.len(), || {
                    for &d in &domains {
                        black_box(seq.stamp(d));
                    }
                })
            }),
            "ns",
        ));
        let (rtt_us, per_txn) = ac_round_trips(tr, parent, db, &pays);
        out.push(m("component.opbatch_rtt_us", rtt_us, "us"));
        out.push(m("component.donebatches_per_txn", per_txn, "ratio"));
    }

    if w.kind.has_olap() {
        let orders = new_orders(db, w, seed ^ 0x40e, ITEMS / 10 + 2 * Q3_REPS);
        let (probe, writes) = orders.split_at(ITEMS / 10);
        out.push(m(
            "ops.neworder_ns",
            reps(|| {
                per_item_ns(
                    tr,
                    "ops.exec_whole_txn.neworder",
                    parent,
                    probe.len(),
                    || {
                        for p in probe {
                            txn += 1;
                            let req = TxnRequest::NewOrder(p.clone());
                            black_box(exec_whole_txn(db, TxnId(txn), &req, None).is_ok());
                        }
                    },
                )
            }),
            "ns",
        ));
        // Each Q3 follows one new-order, as in the workload, so the
        // orders/new-order scans take the cache-miss path.
        let shared: Vec<Q3Spec> = (0..8).map(|i| Q3_WINDOWS[i % 4]).collect();
        let mut writes = writes.iter();
        let mut q3_ms = |name: &'static str, shared_window: bool| {
            let mut v: Vec<f64> = (0..Q3_REPS)
                .map(|_| {
                    if let Some(p) = writes.next() {
                        txn += 1;
                        let req = TxnRequest::NewOrder(p.clone());
                        tr.span("ops.exec_whole_txn.neworder", parent, 1, || {
                            black_box(exec_whole_txn(db, TxnId(txn), &req, None).is_ok())
                        });
                    }
                    per_item_ns(tr, name, parent, 1, || {
                        if shared_window {
                            black_box(exec_q3_shared(db, &shared));
                        } else {
                            black_box(exec_q3_local(db, &Q3Spec::default()));
                        }
                    }) / 1e6
                })
                .collect();
            median(&mut v)
        };
        let shared_ms = q3_ms("olap.exec_q3_shared8", true);
        let local_ms = q3_ms("olap.exec_q3_local", false);
        out.push(m("olap.q3_shared8_ms", shared_ms, "ms"));
        out.push(m("olap.q3_local_ms", local_ms, "ms"));
    }
    out
}

/// ns per event moved through an inbox by one producer thread
/// (`send_many`, 32 at a time, the driver's window) and one consumer
/// (`drain_into`, up to 64). The payload is a unit-variant `Event`: full
/// event size, nothing to drop.
fn inbox_transfer_ns(tr: &mut Tracer, parent: Option<SpanId>) -> f64 {
    const SEND: usize = 32;
    let n = ITEMS / SEND * SEND;
    let (tx, inbox) = Inbox::<Event>::new();
    per_item_ns(tr, "stream.inbox_send_drain", parent, n, || {
        std::thread::scope(|s| {
            s.spawn(move || {
                for _ in 0..n / SEND {
                    tx.send_many((0..SEND).map(|_| Event::Shutdown));
                }
            });
            let mut got = 0;
            let mut buf = Vec::with_capacity(64);
            while got < n {
                buf.clear();
                match inbox.drain_into(&mut buf, 64) {
                    Ok(k) => got += k,
                    Err(_) => std::hint::spin_loop(),
                }
            }
        });
    })
}

/// Feeds one AC `Event::OpBatch`es of streaming-CC stage groups (32
/// payments, 3 envelopes each) and waits for each batch's completions.
/// Returns (median µs per batch round trip, `DoneBatch`es per txn).
fn ac_round_trips(
    tr: &mut Tracer,
    parent: Option<SpanId>,
    db: &Arc<TpccDb>,
    pays: &[PaymentParams],
) -> (f64, f64) {
    let (tx, handle) = AnyComponent::spawn_with_ctrl(
        AcId(0),
        Arc::clone(db),
        None,
        Arc::new(Counter::new()),
        BatchMode::default().controller(),
    );
    let seq = Sequencer::new(db.cfg.warehouses as usize);
    let (done_tx, done_rx) = unbounded::<DoneBatch>();
    let mut rtts = Vec::new();
    let (mut txns, mut done_batches) = (0u64, 0u64);
    let mut next_txn = 1u64 << 41;
    let mut pays = pays.iter().cycle();
    for _ in 0..REPS * AC_BATCHES {
        let mut envs = Vec::with_capacity(AC_BATCH_TXNS * 3);
        for _ in 0..AC_BATCH_TXNS {
            let p = pays.next().expect("cycled");
            next_txn += 1;
            let txn = TxnId(next_txn);
            let domain = (p.w_id - 1) as u32;
            let stamp = seq.stamp(domain as usize);
            let groups = payment_stage_groups(p);
            let tracker = TxnTracker::new(txn, groups.len() as u32, done_tx.clone());
            for (stage, ops) in groups {
                envs.push(OpEnvelope {
                    txn,
                    stage,
                    domain,
                    seq: stamp,
                    ops,
                    tracker: Arc::clone(&tracker),
                });
            }
        }
        let t0 = Instant::now();
        tx.send(Event::OpBatch(envs));
        let mut left = AC_BATCH_TXNS;
        while left > 0 {
            let Ok(batch) = done_rx.recv_timeout(Duration::from_secs(10)) else {
                break;
            };
            done_batches += 1;
            left -= batch
                .0
                .iter()
                .filter(|c| matches!(c, Completion::Txn(_)))
                .count();
        }
        let t1 = Instant::now();
        tr.record(
            "component.opbatch_round_trip",
            parent,
            t0,
            t1,
            AC_BATCH_TXNS as u64,
        );
        rtts.push((t1 - t0).as_secs_f64() * 1e6);
        txns += AC_BATCH_TXNS as u64;
    }
    tx.send(Event::Shutdown);
    drop(tx);
    handle.join().expect("the probe AC panicked");
    (median(&mut rtts), done_batches as f64 / txns.max(1) as f64)
}

/// Probes of the layers the sharded workload uses, on the last round's
/// orders, WAL records and frames.
pub(crate) fn shard_layers(
    tr: &mut Tracer,
    parent: Option<SpanId>,
    state: &ClusterState,
    orders: &[NewOrderParams],
    drive: &DriveOutcome,
) -> Vec<Measure> {
    let mut out = Vec::new();
    let records: Vec<LogRecord> = state.wals[0].snapshot().into_iter().take(ITEMS).collect();

    out.push(m(
        "wal.append_ns",
        reps(|| {
            let ops: Vec<_> = records.iter().map(|r| (r.txn, r.op.clone())).collect();
            let wal = Wal::new();
            per_item_ns(tr, "wal.append", parent, ops.len(), || {
                for (txn, op) in ops {
                    black_box(wal.append(txn, op));
                }
            })
        }),
        "ns",
    ));

    let frames = commit_frames(state, orders, drive);
    out.push(m(
        "common.commit_codec_ns",
        reps(|| {
            per_item_ns(
                tr,
                "common.commit_encode_decode",
                parent,
                frames.len(),
                || {
                    for msg in &frames {
                        let bytes = msg.encode();
                        black_box(CommitMsg::decode(&bytes).is_ok());
                    }
                },
            )
        }),
        "ns",
    ));

    let batches: Vec<ReplMsg> = records
        .chunks(64)
        .map(|c| ReplMsg::Records(c.to_vec()))
        .collect();
    out.push(m(
        "common.repl_codec_ns_per_record",
        reps(|| {
            per_item_ns(
                tr,
                "common.repl_encode_decode",
                parent,
                records.len(),
                || {
                    for msg in &batches {
                        let bytes = msg.encode();
                        black_box(ReplMsg::decode(&bytes).is_ok());
                    }
                },
            )
        }),
        "ns",
    ));

    let encoded: Vec<Bytes> = frames.iter().map(CommitMsg::encode).collect();
    out.push(m(
        "stream.link_ns_per_frame",
        reps(|| link_transfer_ns(tr, parent, &encoded)),
        "ns",
    ));
    out
}

/// The 2PC frames the workload's cross-shard orders exchanged: per
/// remote participant a Prepare carrying its order lines, a Vote, a
/// Decide and a DecideAck.
fn commit_frames(
    state: &ClusterState,
    orders: &[NewOrderParams],
    drive: &DriveOutcome,
) -> Vec<CommitMsg> {
    let mut frames = Vec::new();
    for &(i, _) in &drive.acked {
        let p = &orders[i];
        let home = state.map.node_of(p.w_id);
        let o_id = i as i64 + 1;
        let txn = TxnId(o_id as u64);
        let remote: Vec<PrepOp> = p
            .supply
            .iter()
            .enumerate()
            .filter(|&(_, &s)| state.map.node_of(s) != home)
            .map(|(idx, &s)| {
                let (item, qty) = p.lines[idx];
                PrepOp {
                    table: LINES_TABLE,
                    tuple: line_tuple(o_id, idx, s, item, qty),
                }
            })
            .collect();
        if remote.is_empty() {
            continue;
        }
        frames.extend([
            CommitMsg::Prepare {
                txn,
                coord: home,
                ops: remote,
            },
            CommitMsg::Vote { txn, yes: true },
            CommitMsg::Decide { txn, commit: true },
            CommitMsg::DecideAck { txn },
        ]);
        if frames.len() >= ITEMS {
            break;
        }
    }
    frames
}

/// ns per frame moved over an instant `SimLink` from a producer thread
/// (`send_blocking`) to a consumer (`try_recv`).
fn link_transfer_ns(tr: &mut Tracer, parent: Option<SpanId>, frames: &[Bytes]) -> f64 {
    if frames.is_empty() {
        return 0.0;
    }
    let n = ITEMS;
    let (mut tx, mut rx) = SimLink::channel::<Bytes>(LinkSpec::instant(), 1 << 10);
    per_item_ns(tr, "stream.link_send_recv", parent, n, || {
        std::thread::scope(|s| {
            s.spawn(move || {
                for f in frames.iter().cycle().take(n) {
                    let len = f.len();
                    if tx.send_blocking(f.clone(), len).is_err() {
                        return;
                    }
                }
            });
            let mut got = 0;
            while got < n {
                match rx.try_recv() {
                    Ok(f) => {
                        black_box(f);
                        got += 1;
                    }
                    Err(_) => std::hint::spin_loop(),
                }
            }
        });
    })
}
