//! The sharded workload: shard nodes with one sync follower each, fed
//! TPC-C new-orders through `ShardRouter::submit` by one closed-loop
//! client, and its oracle.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use anydb_common::dist::HotSpot;
use anydb_common::TxnId;
use anydb_core::event::{Completion, DoneBatch, OpDone};
use anydb_core::replica::{repl_connection, run_follower, FollowerExit, PrimaryEnd};
use anydb_core::shard::{
    audit_order, peer_pair, shard_store, NodeExit, OrderVisibility, PeerEnd, ShardConfig, ShardMap,
    ShardMetrics, ShardNode, ShardOp, ShardRouter,
};
use anydb_storage::{Store, Wal};
use anydb_stream::LinkSpec;
use anydb_workload::tpcc::{NewOrderGen, NewOrderParams, TpccConfig};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError};

use crate::trace::{SpanId, Tracer};

/// Shard nodes in the cluster.
const NODES: u32 = 2;
/// Warehouses the orders spread over.
const WAREHOUSES: u32 = 8;
/// Probability that an order line draws a remote supply warehouse.
const REMOTE_LINE_PROB: f64 = 0.01;
/// Orders the client keeps in flight.
pub(crate) const WINDOW: usize = 32;
/// Link ring slots per direction.
const RING: usize = 1 << 10;
/// How long the client waits for the last in-flight acks after the
/// measured interval before it gives up on them.
const DRAIN_LIMIT: Duration = Duration::from_secs(20);

/// `count` new-orders over [`WAREHOUSES`] uniform warehouses, about 5%
/// of them with a supply line on the other shard.
pub fn generate_orders(seed: u64, count: usize) -> Vec<NewOrderParams> {
    let cfg = TpccConfig {
        warehouses: WAREHOUSES,
        ..TpccConfig::default()
    };
    let mut gen = NewOrderGen::new(cfg, HotSpot::uniform(u64::from(WAREHOUSES)), seed)
        .with_remote_mix(REMOTE_LINE_PROB);
    (0..count).map(|_| gen.next()).collect()
}

/// Whether `p` spans more than one shard (and so runs two-phase commit).
fn is_cross_shard(map: &ShardMap, p: &NewOrderParams) -> bool {
    let home = map.node_of(p.w_id);
    p.supply.iter().any(|&s| map.node_of(s) != home)
}

/// A running cluster: shard nodes on their own threads, each with one
/// sync follower on another.
pub(crate) struct Cluster {
    /// Placement of warehouses on nodes.
    pub map: ShardMap,
    /// Client entry point.
    pub router: ShardRouter,
    /// Per-node primary stores.
    pub stores: Vec<Arc<Store>>,
    /// Per-node follower stores.
    pub follower_stores: Vec<Arc<Store>>,
    /// Per-node primary WALs.
    pub wals: Vec<Arc<Wal>>,
    /// Per-node counters (the follower shares its node's `repl` block).
    pub metrics: Vec<Arc<ShardMetrics>>,
    nodes: Vec<JoinHandle<NodeExit>>,
    followers: Vec<JoinHandle<FollowerExit>>,
    follower_stop: Arc<AtomicBool>,
}

/// Boots [`NODES`] shard nodes over instant links, each with a sync
/// follower attached, under `ShardConfig::default()`.
pub(crate) fn boot() -> Cluster {
    let map = ShardMap::new(NODES);
    let cfg = ShardConfig::default();
    let mut peers: Vec<Vec<PeerEnd>> = (0..NODES).map(|_| Vec::new()).collect();
    for a in 0..NODES {
        for b in (a + 1)..NODES {
            let (ea, eb) = peer_pair(LinkSpec::instant(), RING, a, b);
            peers[a as usize].push(ea);
            peers[b as usize].push(eb);
        }
    }
    let follower_stop = Arc::new(AtomicBool::new(false));
    let (mut slots, mut stores, mut follower_stores, mut wals, mut metrics_all) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut nodes, mut followers) = (Vec::new(), Vec::new());
    for (node, peer_ends) in (0..NODES).zip(peers) {
        let store = Arc::new(shard_store());
        let wal = Arc::new(Wal::new());
        let metrics = Arc::new(ShardMetrics::default());
        let (ops_tx, ops_rx) = unbounded::<ShardOp>();
        let (_peer_join_tx, peer_join_rx) = unbounded::<PeerEnd>();
        let (repl_join_tx, repl_join_rx) = unbounded::<PrimaryEnd>();
        let (primary_end, follower_end) = repl_connection(LinkSpec::instant(), RING);
        if repl_join_tx.send(primary_end).is_err() {
            unreachable!("the join receiver is alive until the node thread takes it");
        }
        let mut sn = ShardNode::new(
            node,
            map,
            Arc::clone(&store),
            Arc::clone(&wal),
            cfg,
            Arc::clone(&metrics),
        );
        nodes.push(std::thread::spawn(move || {
            let crash = AtomicBool::new(false);
            let stop = AtomicBool::new(false);
            sn.run(
                &ops_rx,
                peer_ends,
                &peer_join_rx,
                &repl_join_rx,
                &crash,
                &stop,
            )
        }));
        let f_store = Arc::new(shard_store());
        let (f_store2, f_metrics, stop) = (
            Arc::clone(&f_store),
            Arc::clone(&metrics),
            Arc::clone(&follower_stop),
        );
        followers.push(std::thread::spawn(move || {
            let wal = Wal::new();
            run_follower(
                &f_store2,
                &wal,
                follower_end,
                &cfg.repl,
                &f_metrics.repl,
                &stop,
            )
        }));
        slots.push(ops_tx);
        stores.push(store);
        follower_stores.push(f_store);
        wals.push(wal);
        metrics_all.push(metrics);
    }
    Cluster {
        map,
        router: ShardRouter::new(map, slots),
        stores,
        follower_stores,
        wals,
        metrics: metrics_all,
        nodes,
        followers,
        follower_stop,
    }
}

/// What the client saw in one measured interval.
#[derive(Debug, Default)]
pub(crate) struct DriveOutcome {
    /// Orders submitted (order `i` runs as txn and o_id `i + 1`).
    pub submitted: usize,
    /// `(order index, submit-to-ack latency)` of every order acked ok.
    pub acked: Vec<(usize, Duration)>,
    /// Orders acked as failed.
    pub failed: usize,
    /// Orders still unacked when the client gave up draining.
    pub unresolved: usize,
    /// From the first submit to the last ack.
    pub elapsed: Duration,
}

impl DriveOutcome {
    /// Orders acked ok per second.
    pub fn order_per_s(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.acked.len() as f64 / secs
        } else {
            0.0
        }
    }
}

/// One closed-loop client: keeps [`WINDOW`] orders in flight through
/// `router` for `duration`, then waits for the acks still owed. Each
/// order is timed from just before its submit to the moment its ack
/// reaches the client. With tracing on, every submit and every order
/// becomes a span under `parent`.
pub(crate) fn drive(
    cluster: &Cluster,
    orders: &[NewOrderParams],
    duration: Duration,
    tr: &mut Tracer,
    parent: Option<SpanId>,
) -> DriveOutcome {
    let (done_tx, done_rx) = unbounded::<DoneBatch>();
    let mut sent_at: Vec<Option<Instant>> = vec![None; orders.len()];
    let mut out = DriveOutcome::default();
    let started = Instant::now();
    let deadline = started + duration;
    let mut last_ack = started;
    let mut inflight = 0usize;
    let mut closed = false;
    loop {
        let now = Instant::now();
        if now < deadline && !closed {
            while inflight < WINDOW && out.submitted < orders.len() {
                let i = out.submitted;
                let op = ShardOp {
                    txn: TxnId(i as u64 + 1),
                    params: orders[i].clone(),
                    done: done_tx.clone(),
                };
                let t0 = Instant::now();
                if cluster.router.submit(op).is_err() {
                    // A node channel closed mid-run: stop submitting.
                    closed = true;
                    break;
                }
                if tr.enabled() {
                    tr.record("shard.submit", parent, t0, Instant::now(), 1);
                }
                sent_at[i] = Some(t0);
                out.submitted += 1;
                inflight += 1;
            }
        }
        if inflight == 0 && (now >= deadline || closed || out.submitted == orders.len()) {
            break;
        }
        if now >= deadline + DRAIN_LIMIT {
            out.unresolved = inflight;
            break;
        }
        let first = match done_rx.recv_timeout(Duration::from_millis(5)) {
            Ok(b) => b,
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => unreachable!("the client holds a sender"),
        };
        let acked_at = Instant::now();
        for batch in std::iter::once(first).chain(drain_ready(&done_rx)) {
            for c in batch.0 {
                let Completion::Txn(OpDone { txn, ok }) = c else {
                    continue;
                };
                let i = (txn.0 - 1) as usize;
                let Some(t0) = sent_at.get_mut(i).and_then(Option::take) else {
                    continue; // a duplicate ack
                };
                inflight -= 1;
                last_ack = acked_at;
                if ok {
                    out.acked.push((i, acked_at - t0));
                    if tr.enabled() {
                        let name = if is_cross_shard(&cluster.map, &orders[i]) {
                            "shard.order.cross"
                        } else {
                            "shard.order.local"
                        };
                        tr.record(name, parent, t0, acked_at, 1);
                    }
                } else {
                    out.failed += 1;
                }
            }
        }
    }
    out.elapsed = last_ack - started;
    out
}

fn drain_ready(rx: &Receiver<DoneBatch>) -> impl Iterator<Item = DoneBatch> + '_ {
    std::iter::from_fn(|| rx.try_recv().ok())
}

/// Stops the cluster: followers first (every ack the client holds is
/// already covered by their watermark), then the nodes, which finish once
/// the router's channels close. Joins every thread.
pub(crate) fn shutdown(cluster: Cluster) -> Result<ClusterState, String> {
    let Cluster {
        map,
        router,
        stores,
        follower_stores,
        wals,
        metrics,
        nodes,
        followers,
        follower_stop,
    } = cluster;
    follower_stop.store(true, Ordering::Relaxed);
    drop(router);
    let mut problems = Vec::new();
    for (i, h) in nodes.into_iter().enumerate() {
        match h.join() {
            Ok(NodeExit::Stopped) => {}
            Ok(other) => problems.push(format!("node {i} exited {other:?}")),
            Err(_) => problems.push(format!("node {i} panicked")),
        }
    }
    for (i, h) in followers.into_iter().enumerate() {
        if h.join().is_err() {
            problems.push(format!("follower {i} panicked"));
        }
    }
    if problems.is_empty() {
        Ok(ClusterState {
            map,
            stores,
            follower_stores,
            wals,
            metrics,
        })
    } else {
        Err(problems.join("; "))
    }
}

/// A stopped cluster's data and counters.
pub(crate) struct ClusterState {
    /// Placement of warehouses on nodes.
    pub map: ShardMap,
    /// Per-node primary stores.
    pub stores: Vec<Arc<Store>>,
    /// Per-node follower stores.
    pub follower_stores: Vec<Arc<Store>>,
    /// Per-node primary WALs.
    pub wals: Vec<Arc<Wal>>,
    /// Per-node counters.
    pub metrics: Vec<Arc<ShardMetrics>>,
}

/// The sharded oracle: no order acked as failed or left unacked, and
/// every acked order fully visible on the primaries and on the sync
/// followers.
pub(crate) fn check(
    state: &ClusterState,
    orders: &[NewOrderParams],
    out: &DriveOutcome,
) -> Result<(), String> {
    if out.acked.is_empty() {
        return Err("no order acked".into());
    }
    if out.failed > 0 {
        return Err(format!("{} orders acked as failed", out.failed));
    }
    if out.unresolved > 0 {
        return Err(format!("{} orders never acked", out.unresolved));
    }
    for (tier, stores) in [
        ("primary", &state.stores),
        ("follower", &state.follower_stores),
    ] {
        for &(i, _) in &out.acked {
            let vis = audit_order(stores, &state.map, &orders[i], i as i64 + 1);
            if vis != OrderVisibility::Full {
                return Err(format!(
                    "acked order {} is {vis:?} on the {tier} stores",
                    i + 1
                ));
            }
        }
    }
    Ok(())
}
