//! Commit-path latency of the shard tier with nothing else in flight.
//!
//! A local new-order on a node with a sync follower crosses three hops:
//! client op → node, records → follower, follower ack → node (which
//! then acks the client). Each hop must wake its receiver when the input
//! lands. A loop that instead polls on a fixed nap makes every order pay
//! at least one nap, so the mean submit-to-ack time of one-at-a-time
//! orders is bounded well below the nap (DESIGN.md §12).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use anydb_common::TxnId;
use anydb_core::event::{Completion, OpDone};
use anydb_core::replica::{repl_connection, run_follower};
use anydb_core::shard::{
    peer_pair, shard_store, NodeExit, PeerEnd, ShardConfig, ShardMap, ShardMetrics, ShardNode,
    ShardOp, ShardRouter,
};
use anydb_storage::Wal;
use anydb_stream::LinkSpec;
use anydb_workload::tpcc::NewOrderParams;
use crossbeam::channel::unbounded;

const NODES: u32 = 2;
const ORDERS: u64 = 200;

fn local_order(w: i64) -> NewOrderParams {
    NewOrderParams {
        w_id: w,
        d_id: 1,
        c_id: 7,
        lines: vec![(100, 5), (101, 3)],
        supply: vec![w, w],
        entry_date: 20_260_808,
        rollback: false,
    }
}

#[test]
fn one_at_a_time_local_orders_ack_well_inside_one_nap() {
    let cfg = ShardConfig::default();
    // The node loop's timer resolution: what an idle iteration used to
    // sleep unconditionally.
    let nap = (cfg.retransmit_every / 8)
        .min(cfg.repl.heartbeat_every / 8)
        .max(Duration::from_micros(100));
    let map = ShardMap::new(NODES);
    let (a, b) = peer_pair(LinkSpec::instant(), 64, 0, 1);
    let follower_stop = Arc::new(AtomicBool::new(false));
    let (mut slots, mut nodes, mut followers) = (Vec::new(), Vec::new(), Vec::new());
    for (node, peer) in [a, b].into_iter().enumerate() {
        let (ops_tx, ops_rx) = unbounded::<ShardOp>();
        let (_peer_join_tx, peer_join_rx) = unbounded::<PeerEnd>();
        let (repl_join_tx, repl_join_rx) = unbounded();
        let (primary_end, follower_end) = repl_connection(LinkSpec::instant(), 64);
        assert!(
            repl_join_tx.send(primary_end).is_ok(),
            "join receiver alive"
        );
        let mut sn = ShardNode::new(
            node as u32,
            map,
            Arc::new(shard_store()),
            Arc::new(Wal::new()),
            cfg,
            Arc::new(ShardMetrics::default()),
        );
        nodes.push(thread::spawn(move || {
            let (crash, stop) = (AtomicBool::new(false), AtomicBool::new(false));
            sn.run(
                &ops_rx,
                vec![peer],
                &peer_join_rx,
                &repl_join_rx,
                &crash,
                &stop,
            )
        }));
        let stop = follower_stop.clone();
        followers.push(thread::spawn(move || {
            let metrics = ShardMetrics::default();
            run_follower(
                &shard_store(),
                &Wal::new(),
                follower_end,
                &cfg.repl,
                &metrics.repl,
                &stop,
            )
        }));
        slots.push(ops_tx);
    }
    let router = ShardRouter::new(map, slots);

    let (done_tx, done_rx) = unbounded();
    let mut total = Duration::ZERO;
    for i in 0..ORDERS {
        // Alternate home warehouses so both nodes serve orders.
        let w = 1 + (i % 8) as i64;
        let txn = TxnId(i + 1);
        let started = Instant::now();
        let submitted = router.submit(ShardOp {
            txn,
            params: local_order(w),
            done: done_tx.clone(),
        });
        assert!(submitted.is_ok(), "node {w} alive");
        let batch = done_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("order acked");
        total += started.elapsed();
        assert_eq!(
            batch.0,
            vec![Completion::Txn(OpDone { txn, ok: true })],
            "order {i} acked as committed"
        );
    }
    let mean = total / ORDERS as u32;

    follower_stop.store(true, Ordering::Relaxed);
    drop(router);
    for h in nodes {
        assert_eq!(h.join().unwrap(), NodeExit::Stopped);
    }
    for h in followers {
        h.join().unwrap();
    }
    assert!(
        mean < nap / 2,
        "mean submit-to-ack {mean:?} is not well inside one {nap:?} nap"
    );
}
