//! Sharded multi-node TPC-C: warehouse placement, cross-shard 2PC, and
//! crash recovery (DESIGN.md §10).
//!
//! §2.3/§4 of the paper scale the architecture-less engine by adding
//! servers; this module makes a multi-node deployment concrete.
//! Warehouses are placed on shard nodes by a jump consistent hash
//! ([`ShardMap`]); every inter-node byte crosses a modeled
//! [`SimLink`] derived from a [`Topology`] (Tcp class between servers),
//! so fault injection and latency modeling apply to the commit protocol
//! exactly as they do to scans and replication.
//!
//! A new-order whose supply warehouses all live on the home shard
//! commits locally. One with remote supply lines becomes a distributed
//! transaction under **two-phase commit with presumed abort**:
//!
//! * the coordinator (the home shard) logs [`LogOp::Prepare`] for its
//!   local slice, sends [`CommitMsg::Prepare`] to each remote
//!   participant, and collects [`CommitMsg::Vote`]s
//!   ([`CoordVotes`] keeps that pure and unit-testable);
//! * a participant logs its own `Prepare` (staged, durable) and votes —
//!   under sync replication only once the Prepare record is covered by
//!   its follower's ack watermark;
//! * on unanimous yes the coordinator logs [`LogOp::Decide`] **before**
//!   applying (log-then-apply, so [`twopc_scan`] can finish a crashed
//!   apply), applies its slice, and sends [`CommitMsg::Decide`];
//!   participants apply, log their own decision, and answer
//!   [`CommitMsg::DecideAck`];
//! * the client ack releases only after **every** participant acked and
//!   (with followers) the records are replicated — "zero lost acked
//!   commits" is enforced at this gate;
//! * every message may be lost: coordinators retransmit Prepare/Decide
//!   on a [`Retransmit`] timer, staged participants re-ask the outcome
//!   with [`CommitMsg::DecideQuery`] — retransmission *is* the repair
//!   path, as for replication catch-up. A query for a still-undecided
//!   transaction is answered with a fresh Prepare, never counted as a
//!   vote: queries are ungated, and only the watermark-gated Vote
//!   proves the participant's Prepare record is durable;
//! * a coordinator that recovers with a staged-but-undecided transaction
//!   **presumes abort** (it logs `Decide{commit: false}` so later
//!   queries get a consistent answer); a participant asked about a
//!   transaction the coordinator never heard of gets the same presumed
//!   abort. A client re-submission of a presumed-abort transaction is a
//!   fresh attempt: its new Prepare supersedes the old decision.
//!
//! Each node's storage tier can run replicated exactly like a PR-8
//! storage AC: followers join over [`PrimaryEnd`] links, WAL records
//! (2PC records included) ship via the shared [`ship_records`] path, and
//! Votes / DecideAcks / client acks gate on the follower watermark so a
//! promoted follower can always reconstruct staged state from its
//! mirrored log and re-ask the coordinator.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use anydb_common::commit::{CommitMsg, PrepOp};
use anydb_common::fxmap::{FxHashMap, FxHashSet};
use anydb_common::metrics::{Counter, RobustSnapshot};
use anydb_common::repl::ReplMsg;
use anydb_common::{ColumnDef, DataType, Schema, ServerId};
use anydb_common::{DbError, DbResult, TableId, Tuple, TxnId, Value};
use anydb_storage::catalog::TableSpec;
use anydb_storage::key::IndexKey;
use anydb_storage::recovery::{replay, twopc_scan};
use anydb_storage::store::Partitioner;
use anydb_storage::wal::LogOp;
use anydb_storage::{Store, Wal};
use anydb_stream::link::{LinkReceiver, LinkSender, LinkSpec, SimLink};
use anydb_stream::network::{LinkClass, Topology};
use anydb_txn::twopc::{CoordVotes, Retransmit};
use anydb_workload::tpcc::NewOrderParams;
use bytes::Bytes;
use crossbeam::channel::Sender as ChanSender;
use crossbeam::channel::{Receiver, TryRecvError};

use crate::event::{Completion, CompletionBatcher, DoneSender, OpDone};
use crate::replica::{ship_records, FollowerSlot, PrimaryEnd, ReplConfig, ReplMetrics, Wakeup};

/// Warehouse → shard-node placement by jump consistent hash
/// (Lamport/Veach): no table to ship around, even spread, and growing
/// the cluster only moves keys *to the new node* — never between
/// existing ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMap {
    nodes: u32,
}

impl ShardMap {
    /// A placement over `nodes` shard nodes.
    ///
    /// # Panics
    /// Panics if `nodes` is zero.
    pub fn new(nodes: u32) -> Self {
        assert!(nodes > 0, "a shard map needs at least one node");
        Self { nodes }
    }

    /// Number of shard nodes.
    pub fn nodes(&self) -> u32 {
        self.nodes
    }

    /// The node that owns `warehouse` (and every row homed there).
    pub fn node_of(&self, warehouse: i64) -> u32 {
        jump_hash(warehouse as u64, self.nodes)
    }
}

/// Jump consistent hash: maps `key` to one of `buckets` with the
/// minimal-disruption property used by [`ShardMap`].
fn jump_hash(mut key: u64, buckets: u32) -> u32 {
    let mut b: i64 = -1;
    let mut j: i64 = 0;
    while j < i64::from(buckets) {
        b = j;
        key = key.wrapping_mul(2_862_933_555_777_941_757).wrapping_add(1);
        let r = ((key >> 33).wrapping_add(1)) as f64;
        j = (((b + 1) as f64) * ((1u64 << 31) as f64 / r)) as i64;
    }
    b as u32
}

/// The order-header table every shard node carries: `(o_id Int pk,
/// o_w Int, o_d Int, o_c Int)`, homed on the order's home warehouse.
pub const ORDERS_TABLE: TableId = TableId(0);
/// The order-line table: `(ol_key Int pk, ol_o Int, ol_supply Int,
/// ol_item Int, ol_qty Int)`, homed on the line's *supply* warehouse —
/// remote supply lines are what make a new-order cross-shard.
pub const LINES_TABLE: TableId = TableId(1);

/// A fresh shard-node store holding [`ORDERS_TABLE`] and
/// [`LINES_TABLE`].
pub fn shard_store() -> Store {
    let store = Store::new();
    store
        .create_table(TableSpec::new(
            Schema::new(
                "orders",
                vec![
                    ColumnDef::new("o_id", DataType::Int),
                    ColumnDef::new("o_w", DataType::Int),
                    ColumnDef::new("o_d", DataType::Int),
                    ColumnDef::new("o_c", DataType::Int),
                ],
                &["o_id"],
            ),
            1,
            Partitioner::Single,
        ))
        .expect("fresh store");
    store
        .create_table(TableSpec::new(
            Schema::new(
                "order_lines",
                vec![
                    ColumnDef::new("ol_key", DataType::Int),
                    ColumnDef::new("ol_o", DataType::Int),
                    ColumnDef::new("ol_supply", DataType::Int),
                    ColumnDef::new("ol_item", DataType::Int),
                    ColumnDef::new("ol_qty", DataType::Int),
                ],
                &["ol_key"],
            ),
            1,
            Partitioner::Single,
        ))
        .expect("fresh store");
    store
}

/// The deterministic order-header row for `o_id` (drivers and audits
/// agree on it).
pub fn order_tuple(o_id: i64, w: i64, d: i64, c: i64) -> Tuple {
    Tuple::new(vec![
        Value::Int(o_id),
        Value::Int(w),
        Value::Int(d),
        Value::Int(c),
    ])
}

/// Primary key of order `o_id`'s line `idx`. TPC-C orders carry at most
/// 15 lines, so packing into 16 slots per order keeps keys unique.
pub fn line_key(o_id: i64, idx: usize) -> i64 {
    debug_assert!(idx < 16, "TPC-C order lines are capped at 15");
    o_id * 16 + idx as i64
}

/// The deterministic order-line row for `(o_id, idx)`.
pub fn line_tuple(o_id: i64, idx: usize, supply: i64, item: i64, qty: i64) -> Tuple {
    Tuple::new(vec![
        Value::Int(line_key(o_id, idx)),
        Value::Int(o_id),
        Value::Int(supply),
        Value::Int(item),
        Value::Int(qty),
    ])
}

/// One direction-pair of modeled links between this node and `node`.
pub struct PeerEnd {
    /// The remote shard node's id.
    pub node: u32,
    /// Frames to the peer (inject faults here to break this direction).
    pub tx: LinkSender<Bytes>,
    /// Frames from the peer.
    pub rx: LinkReceiver<Bytes>,
}

/// Builds the full peer mesh for `nodes` shard nodes: one AC per server
/// in a [`Topology`] with Tcp-class inter-server links, a [`SimLink`]
/// pair per node pair. `ends[i]` is node `i`'s view of everyone else.
pub fn shard_mesh(nodes: u32, ring: usize) -> Vec<Vec<PeerEnd>> {
    let mut topo = Topology::new(nodes, 1, LinkClass::Tcp);
    let acs: Vec<_> = (0..nodes).map(|s| topo.place_ac(ServerId(s))).collect();
    let mut ends: Vec<Vec<PeerEnd>> = (0..nodes).map(|_| Vec::new()).collect();
    for i in 0..nodes as usize {
        for j in (i + 1)..nodes as usize {
            let spec = topo.link_spec(acs[i], acs[j]);
            let (a, b) = peer_pair(spec, ring, i as u32, j as u32);
            ends[i].push(a);
            ends[j].push(b);
        }
    }
    ends
}

/// One fresh link pair between nodes `a` and `b` (rejoin after a crash:
/// hand each end to its node via the `peer_joins` channel). Returns
/// `(a's end, b's end)`.
pub fn peer_pair(spec: LinkSpec, ring: usize, a: u32, b: u32) -> (PeerEnd, PeerEnd) {
    let (atx, brx) = SimLink::channel::<Bytes>(spec, ring);
    let (btx, arx) = SimLink::channel::<Bytes>(spec, ring);
    (
        PeerEnd {
            node: b,
            tx: atx,
            rx: arx,
        },
        PeerEnd {
            node: a,
            tx: btx,
            rx: brx,
        },
    )
}

/// Where a crash-point-configured coordinator vanishes, relative to the
/// first cross-shard transaction it coordinates. Together the four
/// points cover every distinct recovery obligation of the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Before logging anything: the op simply vanishes; recovery finds
    /// nothing and the client re-submission re-executes from scratch.
    BeforePrepare,
    /// Prepare logged and sent, no decision: recovery presumes abort and
    /// must answer participants' DecideQueries with that abort.
    AfterPrepareSent,
    /// Decide(commit) logged, nothing applied or sent: recovery must
    /// finish the apply and re-deliver the decision to `parts`.
    AfterDecideLogged,
    /// Decide applied and sent, client never acked: recovery answers the
    /// re-submission idempotently from the decided map.
    AfterDecideSent,
}

/// Tunables for one shard node.
#[derive(Debug, Clone, Copy)]
pub struct ShardConfig {
    /// Max client ops drained per loop iteration.
    pub batch_ops: usize,
    /// Cadence for Prepare/Decide retransmission and participant
    /// DecideQuery re-asks. Generous values keep a loaded 1-core CI
    /// host from retransmitting into healthy links.
    pub retransmit_every: Duration,
    /// Modeled group-commit fsync: slept once per loop iteration that
    /// applied at least one commit. Zero disables it; benches set it to
    /// make throughput latency-bound so scale-out is measurable on one
    /// core.
    pub commit_latency: Duration,
    /// Replication knobs for follower shipping (used once followers
    /// join; an unreplicated node never consults the mode).
    pub repl: ReplConfig,
    /// Crash the node at this protocol step of its first cross-shard
    /// transaction (chaos harness; `None` in production paths).
    pub crash_at: Option<CrashPoint>,
}

impl Default for ShardConfig {
    fn default() -> Self {
        Self {
            batch_ops: 32,
            retransmit_every: Duration::from_millis(25),
            commit_latency: Duration::ZERO,
            repl: ReplConfig::default(),
            crash_at: None,
        }
    }
}

/// Counters for one shard node. `repl` holds the node's replication-tier
/// counters when followers are attached.
#[derive(Debug, Default)]
pub struct ShardMetrics {
    /// Client acks for single-shard orders.
    pub local_commits: Counter,
    /// Client acks for cross-shard orders (the 2PC path end-to-end).
    pub cross_commits: Counter,
    /// Prepare frames sent to participants (first transmission only).
    pub prepares: Counter,
    /// No-votes recorded (a participant refused to stage).
    pub votes_no: Counter,
    /// Commit decisions logged at this coordinator.
    pub commits_decided: Counter,
    /// Abort decisions logged (presumed aborts included).
    pub aborts_decided: Counter,
    /// Retransmission timer firings that re-sent something.
    pub retransmits: Counter,
    /// DecideQueries received and answered.
    pub decide_queries: Counter,
    /// Outcomes invented by the presumed-abort rule.
    pub presumed_aborts: Counter,
    /// Commit frames that failed to decode (dropped, never applied).
    pub corrupt_frames: Counter,
    /// Peer-link frames delivered (fault stats harvested at node exit).
    pub link_delivered: Counter,
    /// Peer-link frames lost to injected faults.
    pub link_dropped: Counter,
    /// Peer-link frames that took an injected delay spike.
    pub link_delayed: Counter,
    /// Peer-link sends refused by a cut link.
    pub link_refused: Counter,
    /// Replication-tier counters (WAL shipping to this node's followers).
    pub repl: ReplMetrics,
}

impl ShardMetrics {
    /// This node's counters as one mergeable [`RobustSnapshot`].
    pub fn snapshot(&self) -> RobustSnapshot {
        let mut s = self.repl.snapshot();
        s.frames_delivered = self.link_delivered.get();
        s.frames_dropped = self.link_dropped.get();
        s.frames_delayed = self.link_delayed.get();
        s.sends_refused = self.link_refused.get();
        s.twopc_prepares = self.prepares.get();
        s.twopc_votes_no = self.votes_no.get();
        s.twopc_commits = self.commits_decided.get();
        s.twopc_aborts = self.aborts_decided.get();
        s.twopc_retransmits = self.retransmits.get();
        s.twopc_decide_queries = self.decide_queries.get();
        s.twopc_presumed_aborts = self.presumed_aborts.get();
        s.twopc_corrupt_frames = self.corrupt_frames.get();
        s
    }
}

/// One client new-order submitted to its home shard. The `rollback`
/// flag on the params is ignored here: client-side rollback injection is
/// an engine-tier concern, the shard tier exercises the commit path.
pub struct ShardOp {
    /// Transaction id; doubles as the order id, so re-submissions after
    /// a lost ack are recognized and answered idempotently.
    pub txn: TxnId,
    /// The new-order to run.
    pub params: NewOrderParams,
    /// Where the commit/abort ack goes (batched completion protocol).
    pub done: DoneSender,
}

/// Routes client new-orders to their home shard by [`ShardMap`]
/// placement, surviving node replacement via [`ShardRouter::reroute`]
/// exactly like the replication tier's router.
pub struct ShardRouter {
    map: ShardMap,
    slots: Vec<Mutex<ChanSender<ShardOp>>>,
}

impl ShardRouter {
    /// A router over one op channel per shard node, indexed by node id.
    pub fn new(map: ShardMap, slots: Vec<ChanSender<ShardOp>>) -> Self {
        assert_eq!(slots.len(), map.nodes() as usize, "one slot per node");
        Self {
            map,
            slots: slots.into_iter().map(Mutex::new).collect(),
        }
    }

    /// The placement this router routes by.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// Swaps `node`'s op channel (a recovered replacement took over).
    pub fn reroute(&self, node: u32, tx: ChanSender<ShardOp>) {
        *self.slots[node as usize]
            .lock()
            .unwrap_or_else(|e| e.into_inner()) = tx;
    }

    /// Submits to the home shard of `op.params.w_id`. `Err` hands the op
    /// back when that node's channel is gone (mid-replacement): retry
    /// after a [`ShardRouter::reroute`].
    pub fn submit(&self, op: ShardOp) -> Result<(), ShardOp> {
        let node = self.map.node_of(op.params.w_id) as usize;
        self.slots[node]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .send(op)
            .map_err(|e| e.0)
    }
}

/// Why [`ShardNode::run`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeExit {
    /// The crash switch (or a configured [`CrashPoint`]) fired:
    /// vanished mid-stride, nothing flushed, links dropped.
    Crashed,
    /// The stop switch flipped, or the op channel closed with every
    /// client-owed transaction resolved.
    Stopped,
}

/// A participant-side staged transaction awaiting the outcome.
struct Staged {
    coord: u32,
    ops: Vec<PrepOp>,
    /// LSN of the Prepare record (votes gate on it under sync).
    lsn: u64,
    /// Re-ask timer for [`CommitMsg::DecideQuery`].
    ask: Retransmit,
}

/// A coordinator-side transaction: in flight, or decided and owed to
/// participants/the client.
struct CoordTxn {
    votes: CoordVotes,
    /// Per-participant Prepare payloads for retransmission.
    remote_ops: FxHashMap<u32, Vec<PrepOp>>,
    /// The coordinator's own staged slice (applied on commit).
    local_ops: Vec<PrepOp>,
    /// Client ack channel; `None` on recovered re-delivery entries.
    done: Option<DoneSender>,
    decided: Option<bool>,
    acked_by: FxHashSet<u32>,
    /// Highest LSN of the decision + apply records: Decide frames and
    /// the client ack gate on it when followers are attached.
    final_lsn: u64,
    /// Whether this transaction had remote participants.
    cross: bool,
    retx: Retransmit,
}

/// Per-iteration scratch: sends and acks produced by message handlers,
/// merged into the gated queues by the run loop (keeps handler borrows
/// simple and makes send ordering explicit).
#[derive(Default)]
struct Ctx {
    /// Sends that need no durability gate.
    out_now: Vec<(u32, Bytes)>,
    /// Sends gated on the follower watermark covering an LSN.
    out_gated: Vec<(u32, u64, Bytes)>,
    /// Client acks gated the same way.
    acks: Vec<(u64, TxnId, bool, DoneSender)>,
    /// At least one commit applied (triggers the modeled group fsync).
    applied: bool,
    /// A configured crash point fired: vanish before sending anything.
    crash: bool,
    /// [`CrashPoint::AfterDecideSent`]: vanish after this iteration's
    /// send phase.
    crash_after_send: bool,
}

/// One shard node: a store + WAL, 2PC state, and the single-threaded
/// [`ShardNode::run`] loop that drives links, timers, and followers.
pub struct ShardNode {
    node: u32,
    map: ShardMap,
    store: Arc<Store>,
    wal: Arc<Wal>,
    cfg: ShardConfig,
    metrics: Arc<ShardMetrics>,
    staged: FxHashMap<TxnId, Staged>,
    /// Every outcome this node knows, as coordinator or participant —
    /// the answer book for DecideQueries and idempotent re-submissions.
    /// Commit outcomes are retained for the node's lifetime (they
    /// answer client re-submissions after a lost ack — intentional for
    /// the modeled harness); abort outcomes are dropped once settled,
    /// since the presumed-abort rule re-derives them on demand.
    decided: FxHashMap<TxnId, bool>,
    coord: FxHashMap<TxnId, CoordTxn>,
}

impl ShardNode {
    /// A fresh node over an empty store/WAL.
    pub fn new(
        node: u32,
        map: ShardMap,
        store: Arc<Store>,
        wal: Arc<Wal>,
        cfg: ShardConfig,
        metrics: Arc<ShardMetrics>,
    ) -> Self {
        Self {
            node,
            map,
            store,
            wal,
            cfg,
            metrics,
            staged: FxHashMap::default(),
            decided: FxHashMap::default(),
            coord: FxHashMap::default(),
        }
    }

    /// Rebuilds a node from a durable WAL (crash restart, or a promoted
    /// follower adopting its mirrored log): replays the log into the
    /// store (idempotent), then reconstructs 2PC state with
    /// [`twopc_scan`] —
    ///
    /// * staged, undecided, **coordinated here** → presumed abort,
    ///   logged so later queries get the same answer;
    /// * staged, undecided, coordinated elsewhere → in doubt; re-ask on
    ///   the query timer;
    /// * decided commit but not applied → finish the apply now;
    /// * decided here with remote participants → re-deliver the decision
    ///   until every participant acks.
    pub fn recover(
        node: u32,
        map: ShardMap,
        store: Arc<Store>,
        wal: Arc<Wal>,
        cfg: ShardConfig,
        metrics: Arc<ShardMetrics>,
    ) -> DbResult<Self> {
        let stats = replay(&wal, &store)?;
        metrics.repl.record_replay(&stats);
        let mut me = Self::new(node, map, store, wal, cfg, metrics);
        let now = Instant::now();
        for pc in twopc_scan(&me.wal.snapshot()) {
            match pc.decision {
                None if pc.coord == node => {
                    me.wal.append(
                        pc.txn,
                        LogOp::Decide {
                            commit: false,
                            parts: Vec::new(),
                        },
                    );
                    me.decided.insert(pc.txn, false);
                    me.metrics.presumed_aborts.incr();
                    me.metrics.aborts_decided.incr();
                }
                None => {
                    me.staged.insert(
                        pc.txn,
                        Staged {
                            coord: pc.coord,
                            ops: pc.ops,
                            lsn: me.wal.next_lsn().saturating_sub(1),
                            ask: Retransmit::new(cfg.retransmit_every, now),
                        },
                    );
                }
                Some(commit) => {
                    me.decided.insert(pc.txn, commit);
                    if commit && !pc.applied {
                        me.apply_ops(pc.txn, &pc.ops);
                    }
                    if pc.coord == node && !pc.parts.is_empty() {
                        // The decision is owed to these participants
                        // until they ack; the gate LSN is conservative
                        // (whole recovered log) like a re-submitted op.
                        me.coord.insert(
                            pc.txn,
                            CoordTxn {
                                votes: CoordVotes::new(pc.parts.clone()),
                                remote_ops: FxHashMap::default(),
                                local_ops: Vec::new(),
                                done: None,
                                decided: Some(commit),
                                acked_by: FxHashSet::default(),
                                final_lsn: me.wal.next_lsn().saturating_sub(1),
                                cross: true,
                                retx: Retransmit::new(cfg.retransmit_every, now),
                            },
                        );
                    }
                }
            }
        }
        Ok(me)
    }

    /// This node's id.
    pub fn node(&self) -> u32 {
        self.node
    }

    /// This node's store (audits read through it after the run).
    pub fn store(&self) -> &Arc<Store> {
        &self.store
    }

    /// This node's WAL (recovery hands it to a replacement).
    pub fn wal(&self) -> &Arc<Wal> {
        &self.wal
    }

    /// Splits a new-order into the coordinator's local slice (order
    /// header + home-shard lines) and per-participant remote slices
    /// (lines homed on other shards' supply warehouses).
    fn decompose(
        &self,
        txn: TxnId,
        p: &NewOrderParams,
    ) -> (Vec<PrepOp>, FxHashMap<u32, Vec<PrepOp>>) {
        let o_id = txn.0 as i64;
        let mut local = vec![PrepOp {
            table: ORDERS_TABLE,
            tuple: order_tuple(o_id, p.w_id, p.d_id, p.c_id),
        }];
        let mut remote: FxHashMap<u32, Vec<PrepOp>> = FxHashMap::default();
        for (i, &(item, qty)) in p.lines.iter().enumerate() {
            let supply = p.supply[i];
            let op = PrepOp {
                table: LINES_TABLE,
                tuple: line_tuple(o_id, i, supply, item, qty),
            };
            let home = self.map.node_of(supply);
            if home == self.node {
                local.push(op);
            } else {
                remote.entry(home).or_default().push(op);
            }
        }
        (local, remote)
    }

    /// Applies staged ops: inserts each row and logs `Insert` + one
    /// closing `Commit` (which is what marks the transaction applied for
    /// [`twopc_scan`]). Duplicate keys are recovery overlap — the row is
    /// already durable — and are skipped.
    fn apply_ops(&mut self, txn: TxnId, ops: &[PrepOp]) -> u64 {
        for op in ops {
            let table = self.store.table(op.table).expect("shard schema table");
            match table.insert(op.tuple.clone()) {
                Ok(rid) => {
                    self.wal.append(
                        txn,
                        LogOp::Insert {
                            table: op.table,
                            partition: rid.partition,
                            slot: rid.slot,
                            tuple: op.tuple.clone(),
                        },
                    );
                }
                Err(DbError::DuplicateKey(_)) => {}
                Err(e) => unreachable!("staged shard insert cannot fail: {e:?}"),
            }
        }
        self.wal.append(txn, LogOp::Commit)
    }

    /// Handles one client new-order at its home shard (the coordinator).
    fn handle_client(&mut self, op: ShardOp, ctx: &mut Ctx) {
        let ShardOp { txn, params, done } = op;
        if let Some(&out) = self.decided.get(&txn) {
            if out {
                // Re-submission of a committed transaction (the ack was
                // lost): idempotent ok, gated on the current tail since
                // the original commit LSN is no longer tracked.
                ctx.acks
                    .push((self.wal.next_lsn().saturating_sub(1), txn, true, done));
                return;
            }
            // Presumed abort of an earlier attempt: the client never saw
            // an ack, so this re-submission is a fresh attempt and its
            // new Prepare supersedes the old decision.
            self.decided.remove(&txn);
        }
        if let Some(c) = self.coord.get_mut(&txn) {
            // First attempt still in flight; just refresh the ack
            // channel (the driver may have recreated it).
            c.done = Some(done);
            return;
        }
        let (local_ops, remote) = self.decompose(txn, &params);
        let cross = !remote.is_empty();
        if cross && self.cfg.crash_at == Some(CrashPoint::BeforePrepare) {
            ctx.crash = true;
            return;
        }
        self.wal.append(
            txn,
            LogOp::Prepare {
                coord: self.node,
                ops: local_ops.clone(),
            },
        );
        let parts: Vec<u32> = remote.keys().copied().collect();
        for (&p, ops) in &remote {
            self.metrics.prepares.incr();
            ctx.out_now.push((
                p,
                CommitMsg::Prepare {
                    txn,
                    coord: self.node,
                    ops: ops.clone(),
                }
                .encode(),
            ));
        }
        self.coord.insert(
            txn,
            CoordTxn {
                votes: CoordVotes::new(parts),
                remote_ops: remote,
                local_ops,
                done: Some(done),
                decided: None,
                acked_by: FxHashSet::default(),
                final_lsn: 0,
                cross,
                retx: Retransmit::new(self.cfg.retransmit_every, Instant::now()),
            },
        );
        if cross && self.cfg.crash_at == Some(CrashPoint::AfterPrepareSent) {
            ctx.crash = true;
            return;
        }
        // A purely local order decides right here (no votes to wait on).
        self.try_decide(txn, ctx);
    }

    /// Decides if the votes force an outcome: log-then-apply, then send
    /// the decision (gated on replication when followers are attached).
    fn try_decide(&mut self, txn: TxnId, ctx: &mut Ctx) {
        let (outcome, parts, local_ops, cross) = {
            let Some(c) = self.coord.get_mut(&txn) else {
                return;
            };
            if c.decided.is_some() {
                return;
            }
            let Some(outcome) = c.votes.decision() else {
                return;
            };
            (
                outcome,
                c.votes.participants().to_vec(),
                std::mem::take(&mut c.local_ops),
                c.cross,
            )
        };
        let dlsn = self.wal.append(
            txn,
            LogOp::Decide {
                commit: outcome,
                parts: parts.clone(),
            },
        );
        self.decided.insert(txn, outcome);
        if outcome {
            self.metrics.commits_decided.incr();
        } else {
            self.metrics.aborts_decided.incr();
        }
        if cross && self.cfg.crash_at == Some(CrashPoint::AfterDecideLogged) {
            ctx.crash = true;
            return;
        }
        let mut last = dlsn;
        if outcome {
            last = self.apply_ops(txn, &local_ops);
            ctx.applied = true;
        }
        for &p in &parts {
            ctx.out_gated.push((
                p,
                last,
                CommitMsg::Decide {
                    txn,
                    commit: outcome,
                }
                .encode(),
            ));
        }
        if let Some(c) = self.coord.get_mut(&txn) {
            c.decided = Some(outcome);
            c.final_lsn = last;
        }
        if cross && self.cfg.crash_at == Some(CrashPoint::AfterDecideSent) {
            ctx.crash_after_send = true;
        }
    }

    /// Stages a participant slice: log Prepare, remember it, gate the
    /// yes-vote on the record's replication.
    fn stage(&mut self, txn: TxnId, coord: u32, ops: Vec<PrepOp>, ctx: &mut Ctx) {
        let lsn = self.wal.append(
            txn,
            LogOp::Prepare {
                coord,
                ops: ops.clone(),
            },
        );
        self.staged.insert(
            txn,
            Staged {
                coord,
                ops,
                lsn,
                ask: Retransmit::new(self.cfg.retransmit_every, Instant::now()),
            },
        );
        ctx.out_gated
            .push((coord, lsn, CommitMsg::Vote { txn, yes: true }.encode()));
    }

    fn on_prepare(&mut self, from: u32, txn: TxnId, coord: u32, ops: Vec<PrepOp>, ctx: &mut Ctx) {
        match self.decided.get(&txn).copied() {
            // Already decided commit: the coordinator counted our vote
            // long ago; a stray duplicate gets a harmless re-vote.
            Some(true) => ctx
                .out_now
                .push((from, CommitMsg::Vote { txn, yes: true }.encode())),
            // A Prepare after an abort decision is a fresh attempt (the
            // re-submission path) — it supersedes the old outcome.
            Some(false) => {
                self.decided.remove(&txn);
                self.stage(txn, coord, ops, ctx);
            }
            None => {
                if let Some(s) = self.staged.get(&txn) {
                    // Duplicate (retransmitted) Prepare: re-vote, still
                    // gated on the original record's replication.
                    let lsn = s.lsn;
                    ctx.out_gated
                        .push((from, lsn, CommitMsg::Vote { txn, yes: true }.encode()));
                } else if !self.coord.contains_key(&txn) {
                    self.stage(txn, coord, ops, ctx);
                }
                // A Prepare for a transaction we coordinate is a routing
                // error; drop it.
            }
        }
    }

    fn on_vote(&mut self, from: u32, txn: TxnId, yes: bool, ctx: &mut Ctx) {
        let in_flight = match self.coord.get_mut(&txn) {
            Some(c) if c.decided.is_none() => {
                c.votes.record(from, yes);
                true
            }
            _ => false,
        };
        if in_flight {
            if !yes {
                self.metrics.votes_no.incr();
            }
            self.try_decide(txn, ctx);
        } else if let Some(&out) = self.decided.get(&txn) {
            // Stray vote for a settled transaction: answer with the
            // decision so the voter can resolve its staged state.
            ctx.out_now
                .push((from, CommitMsg::Decide { txn, commit: out }.encode()));
        }
    }

    fn on_decide(&mut self, from: u32, txn: TxnId, commit: bool, ctx: &mut Ctx) {
        if self.decided.contains_key(&txn) {
            // Durable already; the coordinator lost our ack.
            ctx.out_now
                .push((from, CommitMsg::DecideAck { txn }.encode()));
            return;
        }
        let Some(s) = self.staged.remove(&txn) else {
            if !commit {
                // Abort for a transaction we never staged (the Prepare
                // was lost): nothing to undo, just let the coordinator
                // stop re-delivering.
                ctx.out_now
                    .push((from, CommitMsg::DecideAck { txn }.encode()));
            }
            // A commit decision without staged state cannot happen (the
            // coordinator counted our durable vote); dropping the frame
            // is safer than acking rows we do not have.
            return;
        };
        let dlsn = self.wal.append(
            txn,
            LogOp::Decide {
                commit,
                parts: Vec::new(),
            },
        );
        // Commit outcomes must be remembered (they dedupe retransmitted
        // Decides and back idempotent re-acks); an abort needs no map
        // entry — a duplicate abort-Decide is acked via the no-staged
        // path, and presumed abort answers any later question.
        let mut last = dlsn;
        if commit {
            self.decided.insert(txn, commit);
            last = self.apply_ops(txn, &s.ops);
            ctx.applied = true;
        }
        ctx.out_gated
            .push((from, last, CommitMsg::DecideAck { txn }.encode()));
    }

    fn on_query(&mut self, from: u32, txn: TxnId, ctx: &mut Ctx) {
        self.metrics.decide_queries.incr();
        if let Some(&out) = self.decided.get(&txn) {
            ctx.out_now
                .push((from, CommitMsg::Decide { txn, commit: out }.encode()));
        } else if let Some(c) = self.coord.get(&txn) {
            // Still collecting votes. The query is NOT a vote: queries
            // are sent ungated while Votes gate on the participant's
            // follower watermark, so counting it would let a commit
            // decision rest on a Prepare record a promoted follower
            // might not hold. Re-send the Prepare instead — the
            // participant re-votes through its durability gate.
            if c.votes.participants().contains(&from) {
                let ops = c.remote_ops.get(&from).cloned().unwrap_or_default();
                ctx.out_now.push((
                    from,
                    CommitMsg::Prepare {
                        txn,
                        coord: self.node,
                        ops,
                    }
                    .encode(),
                ));
                self.metrics.retransmits.incr();
            }
        } else {
            // Never heard of it: presumed abort, logged so every later
            // query gets the same answer.
            self.wal.append(
                txn,
                LogOp::Decide {
                    commit: false,
                    parts: Vec::new(),
                },
            );
            self.decided.insert(txn, false);
            self.metrics.presumed_aborts.incr();
            self.metrics.aborts_decided.incr();
            ctx.out_now
                .push((from, CommitMsg::Decide { txn, commit: false }.encode()));
        }
    }

    fn handle_msg(&mut self, from: u32, msg: CommitMsg, ctx: &mut Ctx) {
        match msg {
            CommitMsg::Prepare { txn, coord, ops } => self.on_prepare(from, txn, coord, ops, ctx),
            CommitMsg::Vote { txn, yes } => self.on_vote(from, txn, yes, ctx),
            CommitMsg::Decide { txn, commit } => self.on_decide(from, txn, commit, ctx),
            CommitMsg::DecideAck { txn } => {
                if let Some(c) = self.coord.get_mut(&txn) {
                    c.acked_by.insert(from);
                }
            }
            CommitMsg::DecideQuery { txn } => self.on_query(from, txn, ctx),
        }
    }

    /// Fires retransmission timers: unvoted Prepares and un-acked
    /// Decides at coordinators, DecideQueries at staged participants.
    fn retransmit(&mut self, now: Instant, ctx: &mut Ctx) {
        for (&txn, c) in self.coord.iter_mut() {
            if !c.retx.due(now) {
                continue;
            }
            match c.decided {
                None => {
                    for p in c.votes.unvoted() {
                        let ops = c.remote_ops.get(&p).cloned().unwrap_or_default();
                        ctx.out_now.push((
                            p,
                            CommitMsg::Prepare {
                                txn,
                                coord: self.node,
                                ops,
                            }
                            .encode(),
                        ));
                        self.metrics.retransmits.incr();
                    }
                }
                Some(out) => {
                    for &p in c.votes.participants() {
                        if !c.acked_by.contains(&p) {
                            ctx.out_gated.push((
                                p,
                                c.final_lsn,
                                CommitMsg::Decide { txn, commit: out }.encode(),
                            ));
                            self.metrics.retransmits.incr();
                        }
                    }
                }
            }
        }
        for (&txn, s) in self.staged.iter_mut() {
            if s.ask.due(now) {
                ctx.out_now
                    .push((s.coord, CommitMsg::DecideQuery { txn }.encode()));
                self.metrics.retransmits.incr();
            }
        }
    }

    /// Runs the node until a crash/stop switch flips (or a configured
    /// [`CrashPoint`] fires), or the op channel closes with every
    /// client-owed transaction resolved.
    ///
    /// `peer_joins` delivers fresh links to replaced peers mid-run;
    /// `repl_joins` attaches WAL-shipping followers exactly like a
    /// replicated storage AC's primary.
    #[allow(clippy::too_many_arguments)]
    pub fn run(
        &mut self,
        ops: &Receiver<ShardOp>,
        mut peers: Vec<PeerEnd>,
        peer_joins: &Receiver<PeerEnd>,
        repl_joins: &Receiver<PrimaryEnd>,
        crash: &AtomicBool,
        stop: &AtomicBool,
    ) -> NodeExit {
        let mut followers: Vec<FollowerSlot> = Vec::new();
        let mut gated: Vec<(u32, u64, Bytes)> = Vec::new();
        let mut pending_acks: Vec<(u64, TxnId, bool, DoneSender)> = Vec::new();
        let mut batcher = CompletionBatcher::new();
        let mut shipped_upto = self.wal.next_lsn();
        let mut last_beat = Instant::now();
        let mut ops_open = true;
        let nap = (self.cfg.retransmit_every / 8)
            .min(self.cfg.repl.heartbeat_every / 8)
            .max(Duration::from_micros(100));
        let mut wakeup = Wakeup::new();
        for p in peers.iter_mut() {
            wakeup.watch(&mut p.rx);
        }
        let exit = 'term: loop {
            if crash.load(Ordering::Relaxed) {
                // Crash semantics: vanish mid-stride. Gated sends and
                // pending acks are never released; links drop here.
                break 'term NodeExit::Crashed;
            }
            if stop.load(Ordering::Relaxed) {
                batcher.flush();
                break 'term NodeExit::Stopped;
            }
            let mut progressed = false;
            wakeup.rearm();

            while let Ok(mut end) = peer_joins.try_recv() {
                progressed = true;
                wakeup.watch(&mut end.rx);
                match peers.iter_mut().position(|p| p.node == end.node) {
                    Some(i) => peers[i] = end,
                    None => peers.push(end),
                }
            }
            while let Ok(mut end) = repl_joins.try_recv() {
                progressed = true;
                wakeup.watch(&mut end.rx);
                followers.push(FollowerSlot {
                    tx: end.tx,
                    rx: end.rx,
                    acked: 0,
                    dead: false,
                });
            }

            // Follower frames: acks move the watermark, catch-up
            // requests get the WAL tail (same protocol as run_primary).
            for slot in followers.iter_mut() {
                while let Some(frame) = wakeup.next_frame(&mut slot.rx) {
                    progressed = true;
                    match ReplMsg::decode(&frame) {
                        Ok(ReplMsg::Ack { lsn }) => {
                            slot.acked = slot.acked.max(lsn);
                            self.metrics.repl.acks.incr();
                        }
                        Ok(ReplMsg::CatchupFrom { lsn }) => {
                            self.metrics.repl.catchups.incr();
                            let tail = self.wal.tail_from(lsn);
                            ship_records(
                                slot,
                                &tail,
                                self.cfg.repl.batch_ops * 2,
                                &self.metrics.repl,
                            );
                        }
                        _ => {}
                    }
                }
            }
            followers.retain(|s| !s.dead);
            let quorum = followers.iter().map(|s| s.acked).min();
            if let Some(q) = quorum {
                self.metrics
                    .repl
                    .replicated_lsn
                    .fetch_max(q, Ordering::Relaxed);
            }
            // With no followers every gate is open (degraded, exactly
            // like an unreplicated storage AC).
            let covered = |lsn: u64| quorum.map(|q| q > lsn).unwrap_or(true);

            let mut ctx = Ctx::default();

            // Peer frames. Corrupt frames are counted and dropped — the
            // sender's retransmission timer repairs the loss.
            for peer in peers.iter_mut() {
                let from = peer.node;
                while let Some(frame) = wakeup.next_frame(&mut peer.rx) {
                    progressed = true;
                    match CommitMsg::decode(&frame) {
                        Ok(msg) => self.handle_msg(from, msg, &mut ctx),
                        Err(_) => self.metrics.corrupt_frames.incr(),
                    }
                }
                if ctx.crash {
                    break 'term NodeExit::Crashed;
                }
            }

            // Client ops.
            for _ in 0..self.cfg.batch_ops {
                match ops.try_recv() {
                    Ok(op) => {
                        progressed = true;
                        self.handle_client(op, &mut ctx);
                        if ctx.crash {
                            break 'term NodeExit::Crashed;
                        }
                    }
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => {
                        ops_open = false;
                        break;
                    }
                }
            }

            self.retransmit(Instant::now(), &mut ctx);

            // Modeled group-commit fsync: one per applied batch.
            if ctx.applied && !self.cfg.commit_latency.is_zero() {
                std::thread::sleep(self.cfg.commit_latency);
            }

            // Send phase: ungated first, then whatever the watermark
            // covers. Failed sends are deliberate losses — timers repair.
            for (to, frame) in ctx.out_now.drain(..) {
                send_to(&mut peers, to, frame);
            }
            // Merge this iteration's gated sends, skipping frames
            // already queued for the same peer: retransmission while
            // the watermark lags would otherwise accumulate identical
            // (participant, txn) Decides unboundedly.
            for send in ctx.out_gated.drain(..) {
                if !gated.iter().any(|(to, _, f)| *to == send.0 && *f == send.2) {
                    gated.push(send);
                }
            }
            gated.retain(|(to, lsn, frame)| {
                if covered(*lsn) {
                    send_to(&mut peers, *to, frame.clone());
                    false
                } else {
                    true
                }
            });

            // Client acks: the watermark-gated ones, then completed
            // coordinator transactions (all participants acked).
            pending_acks.append(&mut ctx.acks);
            let mut kept = Vec::new();
            for (lsn, txn, ok, done) in pending_acks.drain(..) {
                if covered(lsn) {
                    progressed = true;
                    batcher.push(&done, Completion::Txn(OpDone { txn, ok }));
                } else {
                    kept.push((lsn, txn, ok, done));
                }
            }
            pending_acks = kept;
            let finished: Vec<TxnId> = self
                .coord
                .iter()
                .filter(|(_, c)| {
                    c.decided.is_some()
                        && covered(c.final_lsn)
                        && c.votes
                            .participants()
                            .iter()
                            .all(|p| c.acked_by.contains(p))
                })
                .map(|(&t, _)| t)
                .collect();
            for txn in finished {
                progressed = true;
                let mut c = self.coord.remove(&txn).expect("listed above");
                let ok = c.decided.unwrap_or(false);
                if !ok {
                    // Settled abort: every participant acked, so nobody
                    // re-asks with staged state — drop the entry and let
                    // presumed abort re-derive the answer if a straggler
                    // ever queries. Keeps the decided map from growing
                    // with every aborted transaction forever.
                    self.decided.remove(&txn);
                }
                if let Some(done) = c.done.take() {
                    if ok {
                        if c.cross {
                            self.metrics.cross_commits.incr();
                        } else {
                            self.metrics.local_commits.incr();
                        }
                    }
                    batcher.push(&done, Completion::Txn(OpDone { txn, ok }));
                }
            }

            if ctx.crash_after_send {
                break 'term NodeExit::Crashed;
            }

            // Ship new WAL records to followers (2PC records included).
            let tail = self.wal.tail_from(shipped_upto);
            if !tail.is_empty() {
                progressed = true;
                for slot in followers.iter_mut() {
                    ship_records(slot, &tail, usize::MAX, &self.metrics.repl);
                }
                shipped_upto = self.wal.next_lsn();
                followers.retain(|s| !s.dead);
            }
            if last_beat.elapsed() >= self.cfg.repl.heartbeat_every && !followers.is_empty() {
                last_beat = Instant::now();
                let beat = ReplMsg::Heartbeat {
                    term: u64::from(self.node),
                    next_lsn: self.wal.next_lsn(),
                }
                .encode();
                for slot in followers.iter_mut() {
                    let len = beat.len();
                    if slot.tx.send_blocking(beat.clone(), len).is_err() {
                        slot.dead = true;
                    } else {
                        self.metrics.repl.heartbeats.incr();
                    }
                }
                followers.retain(|s| !s.dead);
            }

            batcher.flush();

            if !ops_open && pending_acks.is_empty() && self.coord.values().all(|c| c.done.is_none())
            {
                break 'term NodeExit::Stopped;
            }
            if !progressed {
                wakeup.park(ops_open.then_some(ops), nap);
            }
        };
        // Harvest each outbound link's fault stats into the node's
        // counters so scenario audits see injected loss/delay even after
        // the links drop with this frame.
        for p in &peers {
            let s = p.tx.fault_stats();
            self.metrics.link_delivered.add(s.delivered);
            self.metrics.link_dropped.add(s.dropped);
            self.metrics.link_delayed.add(s.delayed);
            self.metrics.link_refused.add(s.refused);
        }
        exit
    }
}

/// Best-effort frame send to a peer; a dead or cut link loses the frame,
/// which the protocol's retransmission timers repair.
fn send_to(peers: &mut [PeerEnd], to: u32, frame: Bytes) {
    if let Some(p) = peers.iter_mut().find(|p| p.node == to) {
        let len = frame.len();
        let _ = p.tx.send(frame, len);
    }
}

/// What an audit sees of one order across the shard stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderVisibility {
    /// Header and every line present — a committed order.
    Full,
    /// Nothing present — an aborted or never-run order.
    Absent,
    /// Some rows present, some missing: a half-applied cross-shard
    /// transaction. Must never survive recovery.
    Torn,
}

/// Audits one order's atomicity across `stores` (indexed by node id):
/// the header at the home shard, each line at its supply shard —
/// both-or-neither, never torn.
pub fn audit_order(
    stores: &[Arc<Store>],
    map: &ShardMap,
    p: &NewOrderParams,
    o_id: i64,
) -> OrderVisibility {
    let mut present = 0usize;
    let mut total = 1usize;
    if pk_present(&stores[map.node_of(p.w_id) as usize], ORDERS_TABLE, o_id) {
        present += 1;
    }
    for i in 0..p.lines.len() {
        total += 1;
        let shard = map.node_of(p.supply[i]) as usize;
        if pk_present(&stores[shard], LINES_TABLE, line_key(o_id, i)) {
            present += 1;
        }
    }
    if present == 0 {
        OrderVisibility::Absent
    } else if present == total {
        OrderVisibility::Full
    } else {
        OrderVisibility::Torn
    }
}

fn pk_present(store: &Store, table: TableId, key: i64) -> bool {
    let Ok(t) = store.table(table) else {
        return false;
    };
    let Ok(pk) = IndexKey::from_values(&[Value::Int(key)], &[0]) else {
        return false;
    };
    t.get_rid(&pk).is_ok()
}

/// Drives `orders` through `router` with a bounded in-flight window,
/// re-submitting unacked orders after `ack_timeout` (same txn id — the
/// coordinator answers idempotently) and retrying submits while a node
/// is down mid-replacement. Order `i` runs as txn/o_id `i + 1`. Returns
/// the same audit-ready [`DriveStats`] as the replication driver.
pub fn drive_orders(
    router: &ShardRouter,
    orders: &[NewOrderParams],
    window: usize,
    ack_timeout: Duration,
    overall: Duration,
) -> crate::replica::DriveStats {
    let (done_tx, done_rx) = crossbeam::channel::unbounded();
    let mut stats = crate::replica::DriveStats::default();
    let started = Instant::now();
    let mut last_ack = Instant::now();
    let mut next = 0usize;
    let mut in_flight: Vec<(i64, Instant)> = Vec::new();
    let make_op = |id: i64| ShardOp {
        txn: TxnId(id as u64),
        params: orders[(id - 1) as usize].clone(),
        done: done_tx.clone(),
    };
    let submit = |op: ShardOp| -> bool {
        let mut op = op;
        loop {
            match router.submit(op) {
                Ok(()) => return true,
                Err(back) => {
                    if started.elapsed() > overall {
                        return false;
                    }
                    op = back;
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }
    };
    while (!in_flight.is_empty() || next < orders.len()) && started.elapsed() <= overall {
        while in_flight.len() < window && next < orders.len() {
            next += 1;
            let id = next as i64;
            if !submit(make_op(id)) {
                return stats;
            }
            in_flight.push((id, Instant::now()));
        }
        if let Ok(batch) = done_rx.recv_timeout(Duration::from_millis(1)) {
            let mut drain = vec![batch];
            while let Ok(more) = done_rx.try_recv() {
                drain.push(more);
            }
            for batch in drain {
                for c in batch.0 {
                    let Completion::Txn(OpDone { txn, ok }) = c else {
                        continue;
                    };
                    let id = txn.0 as i64;
                    let Some(pos) = in_flight.iter().position(|&(i, _)| i == id) else {
                        continue; // late duplicate ack
                    };
                    in_flight.swap_remove(pos);
                    let now = Instant::now();
                    stats.max_ack_gap = stats.max_ack_gap.max(now - last_ack);
                    last_ack = now;
                    if ok {
                        stats.acked_ids.push(id);
                    } else {
                        stats.failed += 1;
                    }
                }
            }
        }
        // Re-submit what timed out (lost op, crashed coordinator, or a
        // slow failover): same txn id, answered idempotently.
        let now = Instant::now();
        for (id, sent) in in_flight.iter_mut() {
            if now.duration_since(*sent) > ack_timeout {
                stats.resubmits += 1;
                *sent = now;
                if !submit(make_op(*id)) {
                    return stats;
                }
            }
        }
    }
    stats.acked_ids.sort_unstable();
    stats.acked_ids.dedup();
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::thread;

    fn order(w: i64, supply: Vec<i64>) -> NewOrderParams {
        let lines = supply
            .iter()
            .enumerate()
            .map(|(i, _)| (100 + i as i64, 5))
            .collect();
        NewOrderParams {
            w_id: w,
            d_id: 1,
            c_id: 7,
            lines,
            supply,
            entry_date: 20_260_808,
            rollback: false,
        }
    }

    /// Spawns `nodes` shard nodes wired through a full mesh; returns the
    /// router, per-node stores/metrics, switches, and join handles.
    #[allow(clippy::type_complexity)]
    fn cluster(
        nodes: u32,
        cfg: ShardConfig,
    ) -> (
        ShardRouter,
        Vec<Arc<Store>>,
        Vec<Arc<ShardMetrics>>,
        Vec<Arc<AtomicBool>>,
        Vec<thread::JoinHandle<NodeExit>>,
    ) {
        let map = ShardMap::new(nodes);
        let mut mesh = shard_mesh(nodes, 64);
        let mut txs = Vec::new();
        let mut stores = Vec::new();
        let mut metrics = Vec::new();
        let mut stops = Vec::new();
        let mut handles = Vec::new();
        for node in 0..nodes {
            let (tx, rx) = crossbeam::channel::unbounded::<ShardOp>();
            txs.push(tx);
            let store = Arc::new(shard_store());
            let m = Arc::new(ShardMetrics::default());
            stores.push(Arc::clone(&store));
            metrics.push(Arc::clone(&m));
            let stop = Arc::new(AtomicBool::new(false));
            stops.push(Arc::clone(&stop));
            let peers = std::mem::take(&mut mesh[node as usize]);
            let mut sn = ShardNode::new(node, map, store, Arc::new(Wal::new()), cfg, m);
            handles.push(thread::spawn(move || {
                let (_pj_tx, pj_rx) = crossbeam::channel::unbounded();
                let (_rj_tx, rj_rx) = crossbeam::channel::unbounded();
                let crash = AtomicBool::new(false);
                sn.run(&rx, peers, &pj_rx, &rj_rx, &crash, &stop)
            }));
        }
        (ShardRouter::new(map, txs), stores, metrics, stops, handles)
    }

    #[test]
    fn placement_is_stable_and_even() {
        let map = ShardMap::new(4);
        let mut counts = [0usize; 4];
        for w in 1..=64 {
            let n = map.node_of(w);
            assert_eq!(n, map.node_of(w), "placement must be deterministic");
            counts[n as usize] += 1;
        }
        for (node, &c) in counts.iter().enumerate() {
            assert!(c >= 8, "node {node} got only {c}/64 warehouses");
        }
    }

    #[test]
    fn growing_the_cluster_only_moves_keys_to_the_new_node() {
        let old = ShardMap::new(3);
        let new = ShardMap::new(4);
        for w in 1..=200 {
            let (a, b) = (old.node_of(w), new.node_of(w));
            assert!(
                b == a || b == 3,
                "warehouse {w} moved {a} -> {b}, not to the new node"
            );
        }
    }

    #[test]
    fn decompose_splits_lines_by_supply_shard() {
        let map = ShardMap::new(2);
        let home_w = (1..).find(|&w| map.node_of(w) == 0).unwrap();
        let remote_w = (1..).find(|&w| map.node_of(w) == 1).unwrap();
        let node = ShardNode::new(
            0,
            map,
            Arc::new(shard_store()),
            Arc::new(Wal::new()),
            ShardConfig::default(),
            Arc::new(ShardMetrics::default()),
        );
        let p = order(home_w, vec![home_w, remote_w, home_w]);
        let (local, remote) = node.decompose(TxnId(9), &p);
        // Header + two home lines local; one line for node 1.
        assert_eq!(local.len(), 3);
        assert_eq!(local[0].table, ORDERS_TABLE);
        assert_eq!(remote.len(), 1);
        assert_eq!(remote[&1].len(), 1);
        assert_eq!(remote[&1][0].table, LINES_TABLE);
    }

    #[test]
    fn single_node_orders_commit_locally() {
        let (router, stores, metrics, _stops, handles) = cluster(1, ShardConfig::default());
        let orders: Vec<_> = (0..20).map(|_| order(1, vec![1, 1])).collect();
        let stats = drive_orders(
            &router,
            &orders,
            8,
            Duration::from_millis(500),
            Duration::from_secs(20),
        );
        drop(router);
        for h in handles {
            assert_eq!(h.join().unwrap(), NodeExit::Stopped);
        }
        assert_eq!(stats.acked_ids.len(), 20, "failed={}", stats.failed);
        let map = ShardMap::new(1);
        for (i, p) in orders.iter().enumerate() {
            let vis = audit_order(&stores, &map, p, i as i64 + 1);
            assert_eq!(vis, OrderVisibility::Full, "order {}", i + 1);
        }
        assert_eq!(metrics[0].local_commits.get(), 20);
        assert_eq!(metrics[0].cross_commits.get(), 0);
    }

    #[test]
    fn two_nodes_commit_cross_shard_orders() {
        let map = ShardMap::new(2);
        let w0 = (1..).find(|&w| map.node_of(w) == 0).unwrap();
        let w1 = (1..).find(|&w| map.node_of(w) == 1).unwrap();
        let (router, stores, metrics, _stops, handles) = cluster(2, ShardConfig::default());
        // Half the orders home on each node; every order has one remote
        // supply line, so every order is a 2PC transaction.
        let orders: Vec<_> = (0..30)
            .map(|i| {
                if i % 2 == 0 {
                    order(w0, vec![w0, w1])
                } else {
                    order(w1, vec![w1, w0])
                }
            })
            .collect();
        let stats = drive_orders(
            &router,
            &orders,
            8,
            Duration::from_millis(500),
            Duration::from_secs(30),
        );
        drop(router);
        for h in handles {
            assert_eq!(h.join().unwrap(), NodeExit::Stopped);
        }
        assert_eq!(stats.acked_ids.len(), 30, "failed={}", stats.failed);
        for (i, p) in orders.iter().enumerate() {
            let vis = audit_order(&stores, &map, p, i as i64 + 1);
            assert_eq!(vis, OrderVisibility::Full, "order {}", i + 1);
        }
        let merged = metrics
            .iter()
            .fold(RobustSnapshot::default(), |mut acc, m| {
                acc.merge(&m.snapshot());
                acc
            });
        assert_eq!(merged.twopc_commits, 30);
        assert!(merged.twopc_prepares >= 30);
        assert_eq!(merged.twopc_aborts, 0);
    }

    #[test]
    fn recovery_presumes_abort_and_keeps_in_doubt_participants() {
        let map = ShardMap::new(2);
        let wal = Arc::new(Wal::new());
        // Txn 1: staged here as coordinator, never decided → presumed
        // abort. Txn 2: staged here for coordinator 1 → in doubt.
        let ops = vec![PrepOp {
            table: ORDERS_TABLE,
            tuple: order_tuple(1, 1, 1, 1),
        }];
        wal.append(
            TxnId(1),
            LogOp::Prepare {
                coord: 0,
                ops: ops.clone(),
            },
        );
        wal.append(TxnId(2), LogOp::Prepare { coord: 1, ops });
        let metrics = Arc::new(ShardMetrics::default());
        let node = ShardNode::recover(
            0,
            map,
            Arc::new(shard_store()),
            wal,
            ShardConfig::default(),
            Arc::clone(&metrics),
        )
        .unwrap();
        assert_eq!(node.decided.get(&TxnId(1)), Some(&false));
        assert!(node.staged.contains_key(&TxnId(2)));
        assert_eq!(metrics.presumed_aborts.get(), 1);
        // The presumed abort is durable: a second recovery of the same
        // log reaches the same answer without inventing a new one.
        let again = ShardNode::recover(
            0,
            map,
            Arc::new(shard_store()),
            Arc::clone(&node.wal),
            ShardConfig::default(),
            Arc::new(ShardMetrics::default()),
        )
        .unwrap();
        assert_eq!(again.decided.get(&TxnId(1)), Some(&false));
    }

    #[test]
    fn recovery_finishes_a_decided_but_unapplied_commit() {
        let map = ShardMap::new(1);
        let wal = Arc::new(Wal::new());
        let ops = vec![PrepOp {
            table: ORDERS_TABLE,
            tuple: order_tuple(7, 1, 1, 1),
        }];
        wal.append(TxnId(7), LogOp::Prepare { coord: 0, ops });
        wal.append(
            TxnId(7),
            LogOp::Decide {
                commit: true,
                parts: vec![1],
            },
        );
        let store = Arc::new(shard_store());
        let node = ShardNode::recover(
            0,
            map,
            Arc::clone(&store),
            wal,
            ShardConfig::default(),
            Arc::new(ShardMetrics::default()),
        )
        .unwrap();
        assert!(pk_present(&store, ORDERS_TABLE, 7), "apply must finish");
        // The decision is still owed to participant 1.
        assert!(node.coord.contains_key(&TxnId(7)));
    }
}
