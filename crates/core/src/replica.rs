//! Replicated storage ACs: WAL shipping, failure detection, and
//! promotion (DESIGN.md §9).
//!
//! §2.3 of the paper sketches fault tolerance for an architecture-less
//! DBMS: storage ACs stream log events; a replacement component replays
//! them. This module makes that concrete as primary/follower pairs of
//! storage ACs connected by modeled links:
//!
//! * the **primary** ([`run_primary`]) applies client inserts, appends
//!   `Insert`+`Commit` [`LogRecord`]s, and ships them to every follower
//!   as [`ReplMsg::Records`] batches — encoded once, one frame per
//!   drained op chunk, exactly the batched-completion cadence the rest
//!   of the engine uses;
//! * the **follower** ([`run_follower`]) mirrors the records into its
//!   own [`Wal`] verbatim ([`Wal::extend_shipped`]) and applies them via
//!   the idempotent [`replay_records`], acking its replicated LSN;
//! * commit acks are **sync** (released only once every follower's ack
//!   covers the commit's LSN — durable on the follower) or **async**
//!   (acked at local append) per [`ReplMode`], delivered through the
//!   batched completion protocol ([`CompletionBatcher`]);
//! * failure detection is a **lease** over modeled time: the primary
//!   heartbeats every [`ReplConfig::heartbeat_every`]; a follower that
//!   hears nothing for [`ReplConfig::lease`] promotes itself and starts
//!   its own [`run_primary`] term. The [`Router`] lets drivers re-route
//!   in-flight and new ops to the promoted node;
//! * a crashed ex-primary rejoins via [`recover_replica`]: replay its
//!   serialized log *truncated at the replicated watermark* (its
//!   unreplicated tail never happened — the acks for it were never
//!   released), then catch up from the new primary's WAL tail with
//!   [`ReplMsg::CatchupFrom`].
//!
//! Lost record batches need no dedicated repair path: a follower that
//! sees a batch (or heartbeat) starting past its own `next_lsn` asks
//! `CatchupFrom { its next_lsn }`, and the primary answers with the WAL
//! tail — retransmission *is* the catch-up path, which is what makes the
//! shipping protocol safe over lossy links. Batches always end on a
//! transaction boundary (the primary appends `Insert`+`Commit` together),
//! so per-batch replay never sees a torn transaction.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use anydb_common::metrics::{Counter, RobustSnapshot};
use anydb_common::repl::ReplMsg;
use anydb_common::{ColumnDef, DataType, Schema};
use anydb_common::{DbError, DbResult, TableId, Tuple, TxnId, Value};
use anydb_storage::catalog::TableSpec;
use anydb_storage::recovery::{replay_records, RecoveryStats};
use anydb_storage::store::Partitioner;
use anydb_storage::wal::{LogOp, LogRecord};
use anydb_storage::{Store, Wal};
use anydb_stream::link::{DeadlineRecv, LinkReceiver, LinkSender, LinkSpec, RecvState, SimLink};
use bytes::Bytes;
use crossbeam::channel::Sender as ChanSender;
use crossbeam::channel::{bounded, Receiver, Select, TryRecvError};

use crate::event::{Completion, CompletionBatcher, DoneSender, OpDone};

/// When the primary releases a commit ack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplMode {
    /// Ack only once every follower's replicated LSN covers the commit —
    /// the commit is durable on the follower before the client hears
    /// "yes".
    Sync,
    /// Ack at local WAL append; replication trails behind. A crash can
    /// lose acked commits (the unreplicated tail) — that is the mode's
    /// documented bargain.
    Async,
}

/// Tunables for one replicated storage-AC group.
#[derive(Debug, Clone, Copy)]
pub struct ReplConfig {
    /// Commit-ack rule.
    pub mode: ReplMode,
    /// Max client ops folded into one shipped record batch (one frame,
    /// one fault decision, one ring crossing).
    pub batch_ops: usize,
    /// Primary heartbeat cadence.
    pub heartbeat_every: Duration,
    /// Follower lease: silence longer than this means the primary is
    /// dead and the follower promotes. Must comfortably exceed
    /// `heartbeat_every` plus link latency.
    pub lease: Duration,
}

impl Default for ReplConfig {
    fn default() -> Self {
        Self {
            mode: ReplMode::Sync,
            batch_ops: 64,
            heartbeat_every: Duration::from_millis(20),
            // Generous default: a loaded 1-core CI host can starve a
            // healthy primary thread for tens of milliseconds.
            lease: Duration::from_millis(500),
        }
    }
}

/// Counters for one replication group, including the follower's
/// [`RecoveryStats`] surfaced per applied batch (catch-up observability:
/// `replay_redundant_inserts` climbing while `replay_inserts` stays flat
/// is a retransmitted-tail signature, not data loss).
#[derive(Debug, Default)]
pub struct ReplMetrics {
    /// Commits acked to clients.
    pub commits: Counter,
    /// Record batches shipped by the primary (per follower).
    pub batches_shipped: Counter,
    /// Acks received by the primary.
    pub acks: Counter,
    /// Heartbeats shipped by the primary (per follower).
    pub heartbeats: Counter,
    /// Catch-up requests served by the primary.
    pub catchups: Counter,
    /// Gaps a follower detected (batch or heartbeat past its tail).
    pub gaps: Counter,
    /// Frames a follower rejected (torn bytes, failed replay) — counted,
    /// skipped, never acked, never a panic.
    pub corrupt_frames: Counter,
    /// Lease expiries that promoted a follower.
    pub promotions: Counter,
    /// Replication watermark: every LSN below this is applied on a
    /// follower. The rejoin truncation point.
    pub replicated_lsn: AtomicU64,
    /// Committed transactions replayed on the follower.
    pub replay_committed: Counter,
    /// Transactions skipped by follower replay (in-flight at a cut).
    pub replay_skipped: Counter,
    /// Inserts applied by follower replay.
    pub replay_inserts: Counter,
    /// Inserts the follower already had (retransmitted/overlapping tail).
    pub replay_redundant_inserts: Counter,
    /// Updates applied by follower replay.
    pub replay_updates: Counter,
}

impl ReplMetrics {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one replay's [`RecoveryStats`] into the counters.
    pub fn record_replay(&self, stats: &RecoveryStats) {
        self.replay_committed.add(stats.committed as u64);
        self.replay_skipped.add(stats.skipped as u64);
        self.replay_inserts.add(stats.inserts as u64);
        self.replay_redundant_inserts
            .add(stats.redundant_inserts as u64);
        self.replay_updates.add(stats.updates as u64);
    }

    /// The replication watermark (see [`ReplMetrics::replicated_lsn`]).
    pub fn watermark(&self) -> u64 {
        self.replicated_lsn.load(Ordering::Relaxed)
    }

    /// This group's contribution to the unified robustness snapshot.
    pub fn snapshot(&self) -> RobustSnapshot {
        RobustSnapshot {
            repl_commits: self.commits.get(),
            repl_batches_shipped: self.batches_shipped.get(),
            repl_acks: self.acks.get(),
            repl_heartbeats: self.heartbeats.get(),
            repl_catchups: self.catchups.get(),
            repl_gaps: self.gaps.get(),
            repl_corrupt_frames: self.corrupt_frames.get(),
            repl_promotions: self.promotions.get(),
            ..Default::default()
        }
    }
}

/// One client operation: insert `tuple` into `table`, answer on `done`
/// via the batched completion protocol. Re-submitting the same op after
/// an ack timeout is safe: a duplicate insert is recognized at its
/// primary key and acked without re-applying.
pub struct ClientOp {
    /// Transaction id (drivers derive it from the row key so re-submits
    /// carry the same id).
    pub txn: TxnId,
    /// Target table.
    pub table: TableId,
    /// The row.
    pub tuple: Tuple,
    /// Completion channel.
    pub done: DoneSender,
}

/// The primary's end of one replication connection: records/heartbeats
/// out, acks/catch-up requests in.
pub struct PrimaryEnd {
    /// Records and heartbeats toward the follower.
    pub tx: LinkSender<Bytes>,
    /// Acks and catch-up requests from the follower.
    pub rx: LinkReceiver<Bytes>,
}

/// The follower's end of one replication connection.
pub struct FollowerEnd {
    /// Records and heartbeats from the primary.
    pub rx: LinkReceiver<Bytes>,
    /// Acks and catch-up requests toward the primary.
    pub tx: LinkSender<Bytes>,
}

/// Opens one primary↔follower replication connection over `spec` (both
/// directions the same link class) with `ring` slots per direction.
pub fn repl_connection(spec: LinkSpec, ring: usize) -> (PrimaryEnd, FollowerEnd) {
    let (ship_tx, ship_rx) = SimLink::channel::<Bytes>(spec, ring);
    let (ack_tx, ack_rx) = SimLink::channel::<Bytes>(spec, ring);
    (
        PrimaryEnd {
            tx: ship_tx,
            rx: ack_rx,
        },
        FollowerEnd {
            rx: ship_rx,
            tx: ack_tx,
        },
    )
}

/// Routes client ops to whichever node is currently primary. Drivers
/// submit through this; promotion swaps the target channel, and a failed
/// submit (the old primary's channel died with it) tells the driver to
/// back off and retry — the reroute is coming.
pub struct Router {
    tx: Mutex<ChanSender<ClientOp>>,
}

impl Router {
    /// Routes to `tx` (the boot primary's op channel).
    pub fn new(tx: ChanSender<ClientOp>) -> Self {
        Self { tx: Mutex::new(tx) }
    }

    /// Re-points the router at a promoted node's op channel.
    pub fn reroute(&self, tx: ChanSender<ClientOp>) {
        *self.tx.lock().unwrap_or_else(|e| e.into_inner()) = tx;
    }

    /// Submits one op to the current primary. `Err(op)` hands the op
    /// back when the target channel is dead (primary crashed, reroute
    /// pending) — retry after a backoff.
    pub fn submit(&self, op: ClientOp) -> Result<(), ClientOp> {
        self.tx
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .send(op)
            .map_err(|e| e.0)
    }
}

/// Why [`run_primary`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrimaryExit {
    /// The injected crash switch flipped: the node stopped mid-stride —
    /// links dropped, pending acks never released.
    Crashed,
    /// The op channel closed and all pending acks were resolved.
    Stopped,
}

/// Why [`run_follower`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FollowerExit {
    /// The lease expired (or the primary's link died): this node is now
    /// primary — the caller starts its [`run_primary`] term.
    Promoted,
    /// The stop switch flipped: clean shutdown, no promotion.
    Stopped,
}

pub(crate) struct FollowerSlot {
    pub(crate) tx: LinkSender<Bytes>,
    pub(crate) rx: LinkReceiver<Bytes>,
    pub(crate) acked: u64,
    pub(crate) dead: bool,
}

/// How a node loop sleeps when an iteration made no progress: on one
/// waker shared by every inbound link it drains, and on its client-op
/// channel, instead of a fixed nap (DESIGN.md §12). Shared with the
/// shard tier.
pub(crate) struct Wakeup {
    waker: ChanSender<()>,
    wake: Receiver<()>,
    /// Earliest modeled delivery of a frame seen in flight this
    /// iteration: the park must not sleep past it.
    in_flight: Option<Instant>,
}

impl Wakeup {
    pub(crate) fn new() -> Self {
        let (waker, wake) = bounded(1);
        Self {
            waker,
            wake,
            in_flight: None,
        }
    }

    /// Makes every later push onto `rx` ring this loop's waker. Call it
    /// before the loop next drains `rx`.
    pub(crate) fn watch(&self, rx: &mut LinkReceiver<Bytes>) {
        rx.set_waker(self.waker.clone());
    }

    /// Starts an iteration, before any input is drained: consumes the
    /// pending ring, so every push from here on rings afresh, and
    /// forgets the last iteration's in-flight frames.
    pub(crate) fn rearm(&mut self) {
        let _ = self.wake.try_recv();
        self.in_flight = None;
    }

    /// The next deliverable frame on `rx`; notes the delivery time of a
    /// frame still in flight.
    pub(crate) fn next_frame(&mut self, rx: &mut LinkReceiver<Bytes>) -> Option<Bytes> {
        match rx.try_recv() {
            Ok(frame) => Some(frame),
            Err(RecvState::NotReady(at)) => {
                self.in_flight = Some(self.in_flight.map_or(at, |t| t.min(at)));
                None
            }
            Err(_) => None,
        }
    }

    /// Parks an idle iteration until a watched link rings, a client op
    /// is queued on `ops`, the earliest in-flight frame lands, or `nap`
    /// passes. `nap` is the loop's timer resolution (retransmits,
    /// heartbeats, leases), so timers fire exactly as often as with a
    /// fixed nap. Pass `ops` only while it is open: a disconnected
    /// channel is always ready.
    pub(crate) fn park<T>(&self, ops: Option<&Receiver<T>>, nap: Duration) {
        let timeout = self.in_flight.map_or(nap, |at| {
            nap.min(at.saturating_duration_since(Instant::now()))
        });
        let mut sel = Select::new();
        sel.recv(&self.wake);
        if let Some(ops) = ops {
            sel.recv(ops);
        }
        let _ = sel.ready_timeout(timeout);
    }
}

/// Ships `records` to one follower as [`ReplMsg::Records`] frames,
/// chunked at transaction boundaries so every frame replays standalone.
/// Returns `false` if the link died. Shared with the shard tier, whose
/// nodes ship their WALs (2PC records included) the same way.
pub(crate) fn ship_records(
    slot: &mut FollowerSlot,
    records: &[LogRecord],
    chunk_ops: usize,
    metrics: &ReplMetrics,
) -> bool {
    let mut start = 0usize;
    while start < records.len() {
        // Take at least `chunk_ops` records, then extend to the next
        // Commit/Abort so the chunk is transaction-closed.
        let mut end = start.saturating_add(chunk_ops.max(1)).min(records.len());
        while end < records.len() && !matches!(records[end - 1].op, LogOp::Commit | LogOp::Abort) {
            end += 1;
        }
        let frame = ReplMsg::Records(records[start..end].to_vec()).encode();
        let len = frame.len();
        if slot.tx.send_blocking(frame, len).is_err() {
            slot.dead = true;
            return false;
        }
        metrics.batches_shipped.incr();
        start = end;
    }
    true
}

/// Runs one primary storage-AC term: applies client inserts, logs and
/// ships them, releases commit acks per [`ReplMode`], heartbeats, and
/// serves follower catch-up. Returns when the crash switch flips
/// ([`PrimaryExit::Crashed`] — mid-stride, nothing flushed) or when the
/// op channel closes and every pending ack is resolved
/// ([`PrimaryExit::Stopped`]).
///
/// `joins` delivers new followers mid-term (a rejoining ex-primary). In
/// sync mode with **zero** live followers the primary runs *degraded*:
/// commits ack at local append, exactly async — a deliberate
/// availability-over-durability rule, visible in the metrics as commits
/// acked while `replicated_lsn` stands still.
#[allow(clippy::too_many_arguments)]
pub fn run_primary(
    store: &Store,
    wal: &Wal,
    ops: &Receiver<ClientOp>,
    joins: &Receiver<PrimaryEnd>,
    cfg: &ReplConfig,
    crash: &AtomicBool,
    metrics: &ReplMetrics,
    term: u64,
) -> PrimaryExit {
    let mut followers: Vec<FollowerSlot> = Vec::new();
    // (commit lsn, txn, done): released once every follower acks past it.
    let mut pending: VecDeque<(u64, TxnId, DoneSender)> = VecDeque::new();
    let mut batcher = CompletionBatcher::new();
    let mut last_beat = Instant::now();
    let mut ops_open = true;
    let mut wakeup = Wakeup::new();
    let nap = cfg.heartbeat_every / 8;
    loop {
        if crash.load(Ordering::Relaxed) {
            // Crash semantics: vanish mid-stride. Pending acks are never
            // released; links drop when `followers` goes out of scope.
            return PrimaryExit::Crashed;
        }
        let mut progressed = false;
        wakeup.rearm();

        while let Ok(mut end) = joins.try_recv() {
            wakeup.watch(&mut end.rx);
            followers.push(FollowerSlot {
                tx: end.tx,
                rx: end.rx,
                acked: 0,
                dead: false,
            });
            progressed = true;
        }

        // Drain follower messages: acks move the watermark, catch-up
        // requests get the WAL tail.
        for slot in followers.iter_mut() {
            while let Some(frame) = wakeup.next_frame(&mut slot.rx) {
                progressed = true;
                match ReplMsg::decode(&frame) {
                    Ok(ReplMsg::Ack { lsn }) => {
                        slot.acked = slot.acked.max(lsn);
                        metrics.acks.incr();
                    }
                    Ok(ReplMsg::CatchupFrom { lsn }) => {
                        metrics.catchups.incr();
                        let tail = wal.tail_from(lsn);
                        ship_records(slot, &tail, cfg.batch_ops * 2, metrics);
                    }
                    // A follower never sends anything else; torn frames
                    // are dropped like any other corrupt message.
                    _ => {}
                }
            }
        }
        followers.retain(|s| !s.dead);

        // Release sync acks covered by every follower's watermark. With
        // no followers the group is degraded: everything releases.
        let quorum = followers.iter().map(|s| s.acked).min();
        if let Some(q) = quorum {
            metrics.replicated_lsn.fetch_max(q, Ordering::Relaxed);
        }
        while let Some(front) = pending.front() {
            let covered = quorum.map(|q| q > front.0).unwrap_or(true);
            if !covered {
                break;
            }
            let (_, txn, done) = pending.pop_front().unwrap();
            metrics.commits.incr();
            batcher.push(&done, Completion::Txn(OpDone { txn, ok: true }));
            progressed = true;
        }

        // Drain and apply up to one chunk of client ops.
        let mut shipped: Vec<LogRecord> = Vec::new();
        for _ in 0..cfg.batch_ops {
            let op = match ops.try_recv() {
                Ok(op) => op,
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    ops_open = false;
                    break;
                }
            };
            progressed = true;
            let applied = store
                .table(op.table)
                .and_then(|t| t.insert(op.tuple.clone()));
            match applied {
                Ok(rid) => {
                    let ins = LogOp::Insert {
                        table: op.table,
                        partition: rid.partition,
                        slot: rid.slot,
                        tuple: op.tuple.clone(),
                    };
                    let ins_lsn = wal.append(op.txn, ins.clone());
                    let commit_lsn = wal.append(op.txn, LogOp::Commit);
                    shipped.push(LogRecord {
                        lsn: ins_lsn,
                        txn: op.txn,
                        op: ins,
                    });
                    shipped.push(LogRecord {
                        lsn: commit_lsn,
                        txn: op.txn,
                        op: LogOp::Commit,
                    });
                    if cfg.mode == ReplMode::Sync && !followers.is_empty() {
                        pending.push_back((commit_lsn, op.txn, op.done));
                    } else {
                        metrics.commits.incr();
                        batcher.push(
                            &op.done,
                            Completion::Txn(OpDone {
                                txn: op.txn,
                                ok: true,
                            }),
                        );
                    }
                }
                // A re-submitted op whose first run already applied: the
                // row is in the store and the WAL. Ack it — but under
                // sync, only once the *whole current log* is replicated
                // (we no longer know the original commit LSN; the tail
                // bound is conservative and correct).
                Err(DbError::DuplicateKey(_)) => {
                    let tail = wal.next_lsn().saturating_sub(1);
                    if cfg.mode == ReplMode::Sync && !followers.is_empty() {
                        pending.push_back((tail, op.txn, op.done));
                    } else {
                        batcher.push(
                            &op.done,
                            Completion::Txn(OpDone {
                                txn: op.txn,
                                ok: true,
                            }),
                        );
                    }
                }
                Err(_) => {
                    batcher.push(
                        &op.done,
                        Completion::Txn(OpDone {
                            txn: op.txn,
                            ok: false,
                        }),
                    );
                }
            }
        }

        // Ship this chunk's records: encoded per follower link, one
        // frame (transaction-closed by construction).
        if !shipped.is_empty() {
            for slot in followers.iter_mut() {
                ship_records(slot, &shipped, usize::MAX, metrics);
            }
            followers.retain(|s| !s.dead);
        }

        if last_beat.elapsed() >= cfg.heartbeat_every {
            last_beat = Instant::now();
            let beat = ReplMsg::Heartbeat {
                term,
                next_lsn: wal.next_lsn(),
            }
            .encode();
            for slot in followers.iter_mut() {
                let len = beat.len();
                if slot.tx.send_blocking(beat.clone(), len).is_err() {
                    slot.dead = true;
                } else {
                    metrics.heartbeats.incr();
                }
            }
            followers.retain(|s| !s.dead);
        }

        batcher.flush();

        if !ops_open && pending.is_empty() {
            return PrimaryExit::Stopped;
        }
        if !progressed {
            // Nothing to do: park until input arrives, at most a nap
            // well under the heartbeat cadence.
            wakeup.park(ops_open.then_some(ops), nap);
        }
    }
}

/// Runs one follower storage-AC: mirrors shipped records into its WAL,
/// applies them with the idempotent [`replay_records`], acks its
/// replicated LSN, and watches the lease. Returns
/// [`FollowerExit::Promoted`] when the primary goes silent past
/// [`ReplConfig::lease`] (or its link drops) — the caller then starts a
/// [`run_primary`] term on the same store/WAL — or
/// [`FollowerExit::Stopped`] when `stop` flips.
///
/// The first message out is `CatchupFrom { local next_lsn }`: joining
/// and crash-recovering followers are the same code path, and a fresh
/// boot (LSN 0) just catches up from the beginning.
pub fn run_follower(
    store: &Store,
    wal: &Wal,
    end: FollowerEnd,
    cfg: &ReplConfig,
    metrics: &ReplMetrics,
    stop: &AtomicBool,
) -> FollowerExit {
    let FollowerEnd { mut rx, mut tx } = end;
    let promote = |metrics: &ReplMetrics| {
        metrics.promotions.incr();
        FollowerExit::Promoted
    };
    let hello = ReplMsg::CatchupFrom {
        lsn: wal.next_lsn(),
    }
    .encode();
    let len = hello.len();
    if tx.send_blocking(hello, len).is_err() {
        return promote(metrics);
    }
    let mut last_heard = Instant::now();
    loop {
        if stop.load(Ordering::Relaxed) {
            return FollowerExit::Stopped;
        }
        match rx.recv_deadline(last_heard + cfg.lease) {
            DeadlineRecv::Msg(frame) => {
                last_heard = Instant::now();
                match ReplMsg::decode(&frame) {
                    Ok(ReplMsg::Records(batch)) => {
                        let first = batch.first().map(|r| r.lsn).unwrap_or(0);
                        if first > wal.next_lsn() {
                            // Hole between our tail and this batch: ask
                            // for retransmission instead of applying out
                            // of order. The batch itself will come again
                            // as part of the tail.
                            metrics.gaps.incr();
                            let ask = ReplMsg::CatchupFrom {
                                lsn: wal.next_lsn(),
                            }
                            .encode();
                            let len = ask.len();
                            if tx.send_blocking(ask, len).is_err() {
                                return promote(metrics);
                            }
                            continue;
                        }
                        match replay_records(&batch, store) {
                            Ok(stats) => {
                                wal.extend_shipped(&batch);
                                metrics.record_replay(&stats);
                            }
                            Err(_) => {
                                // Semantically corrupt batch (e.g. slot
                                // mismatch): count, skip, never ack —
                                // the primary's watermark stalls and the
                                // operator sees it here.
                                metrics.corrupt_frames.incr();
                                continue;
                            }
                        }
                        let ack = ReplMsg::Ack {
                            lsn: wal.next_lsn(),
                        }
                        .encode();
                        let len = ack.len();
                        if tx.send_blocking(ack, len).is_err() {
                            return promote(metrics);
                        }
                    }
                    Ok(ReplMsg::Heartbeat { next_lsn, .. }) => {
                        if next_lsn > wal.next_lsn() {
                            // The heartbeat proves records we never saw.
                            metrics.gaps.incr();
                            let ask = ReplMsg::CatchupFrom {
                                lsn: wal.next_lsn(),
                            }
                            .encode();
                            let len = ask.len();
                            if tx.send_blocking(ask, len).is_err() {
                                return promote(metrics);
                            }
                        }
                    }
                    // Torn bytes or a message a primary never sends:
                    // reject with a counter, never a panic, never an ack.
                    _ => metrics.corrupt_frames.incr(),
                }
            }
            DeadlineRecv::TimedOut => {
                if stop.load(Ordering::Relaxed) {
                    return FollowerExit::Stopped;
                }
                return promote(metrics);
            }
            DeadlineRecv::Disconnected => {
                if stop.load(Ordering::Relaxed) {
                    return FollowerExit::Stopped;
                }
                return promote(metrics);
            }
        }
    }
}

/// Rebuilds a crashed replica from its serialized log, truncated at the
/// replicated `watermark`: records at or past it were never acked as
/// replicated, so on rejoin they *never happened* — the new primary's
/// history wins, and the survivor's divergent tail is discarded exactly
/// like a Raft log truncation. The kept prefix replays into `store` and
/// mirrors into `wal` (so the follower's first `CatchupFrom` asks from
/// the right LSN). Returns the replay stats (also folded into
/// `metrics`).
pub fn recover_replica(
    log: Bytes,
    watermark: u64,
    store: &Store,
    wal: &Wal,
    metrics: &ReplMetrics,
) -> DbResult<RecoveryStats> {
    let mut records = Wal::deserialize(log)?;
    records.retain(|r| r.lsn < watermark);
    let stats = replay_records(&records, store)?;
    wal.extend_shipped(&records);
    metrics.record_replay(&stats);
    Ok(stats)
}

/// The table every replication test and ablation drives: `(id Int pk,
/// v Int)`, one partition.
pub const REPL_TABLE: TableId = TableId(0);

/// A store holding just [`REPL_TABLE`].
pub fn repl_store() -> Store {
    let store = Store::new();
    store
        .create_table(TableSpec::new(
            Schema::new(
                "repl",
                vec![
                    ColumnDef::new("id", DataType::Int),
                    ColumnDef::new("v", DataType::Int),
                ],
                &["id"],
            ),
            1,
            Partitioner::Single,
        ))
        .expect("fresh store");
    store
}

/// The deterministic row for `id` (drivers and audits agree on it).
pub fn repl_tuple(id: i64) -> Tuple {
    Tuple::new(vec![Value::Int(id), Value::Int(id.wrapping_mul(3))])
}

/// What one driver run observed.
#[derive(Debug, Default, Clone)]
pub struct DriveStats {
    /// Ids whose commits were acked ok — the audit set: every one of
    /// these must survive a failover.
    pub acked_ids: Vec<i64>,
    /// Ops re-submitted after an ack timeout.
    pub resubmits: usize,
    /// Ops acked as failed.
    pub failed: usize,
    /// Longest gap between consecutive acks — the client-visible stall
    /// (failover = lease expiry + promotion + catch-up, all in here).
    pub max_ack_gap: Duration,
}

/// Drives `ids.len()` single-row insert transactions through `router`
/// with a bounded in-flight window, re-submitting ops unacked after
/// `ack_timeout` (same txn id — the primary recognizes duplicates), and
/// retrying submits while the router's target is dead mid-promotion.
/// Returns when every id is resolved or `overall` expires.
pub fn drive_inserts(
    router: &Router,
    ids: std::ops::Range<i64>,
    window: usize,
    ack_timeout: Duration,
    overall: Duration,
) -> DriveStats {
    let (done_tx, done_rx) = crossbeam::channel::unbounded();
    let mut stats = DriveStats::default();
    let started = Instant::now();
    let mut last_ack = Instant::now();
    let mut next = ids.start;
    // id -> last submit time, for timeout-driven re-submission.
    let mut in_flight: Vec<(i64, Instant)> = Vec::new();
    let make_op = |id: i64| ClientOp {
        txn: TxnId(id as u64),
        table: REPL_TABLE,
        tuple: repl_tuple(id),
        done: done_tx.clone(),
    };
    let submit = |op: ClientOp, stats: &mut DriveStats| -> bool {
        let mut op = op;
        loop {
            match router.submit(op) {
                Ok(()) => return true,
                Err(back) => {
                    // Primary down, reroute pending: back off and retry
                    // unless the whole run is out of time.
                    if started.elapsed() > overall {
                        let _ = stats;
                        return false;
                    }
                    op = back;
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }
    };
    while (!in_flight.is_empty() || next < ids.end) && started.elapsed() <= overall {
        // Top up the window.
        while in_flight.len() < window && next < ids.end {
            let id = next;
            next += 1;
            if !submit(make_op(id), &mut stats) {
                return stats;
            }
            in_flight.push((id, Instant::now()));
        }
        // Collect completions.
        let wait = Duration::from_millis(1);
        if let Ok(batch) = done_rx.recv_timeout(wait) {
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
        // Re-submit anything the (possibly dead) primary never answered.
        for (id, submitted_at) in in_flight.iter_mut() {
            if submitted_at.elapsed() > ack_timeout {
                stats.resubmits += 1;
                if !submit(make_op(*id), &mut stats) {
                    return stats;
                }
                *submitted_at = Instant::now();
            }
        }
    }
    stats.acked_ids.sort_unstable();
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use anydb_common::Rid;

    #[test]
    fn recover_replica_truncates_at_the_watermark() {
        // A log with three committed inserts, watermark covering two:
        // the third (unreplicated) insert never happened.
        let wal = Wal::new();
        let store = repl_store();
        let t = store.table(REPL_TABLE).unwrap();
        for id in 0..3i64 {
            let rid = t.insert(repl_tuple(id)).unwrap();
            wal.append(
                TxnId(id as u64),
                LogOp::Insert {
                    table: REPL_TABLE,
                    partition: rid.partition,
                    slot: rid.slot,
                    tuple: repl_tuple(id),
                },
            );
            wal.append(TxnId(id as u64), LogOp::Commit);
        }
        let watermark = 4; // lsns 0..=3: first two transactions
        let fresh = repl_store();
        let fresh_wal = Wal::new();
        let metrics = ReplMetrics::new();
        let stats =
            recover_replica(wal.serialize(), watermark, &fresh, &fresh_wal, &metrics).unwrap();
        assert_eq!(stats.committed, 2);
        assert_eq!(stats.inserts, 2);
        let t = fresh.table(REPL_TABLE).unwrap();
        assert_eq!(t.row_count(), 2);
        assert_eq!(fresh_wal.next_lsn(), 4);
        // The mirror keeps the log's LSN order: every tail is the
        // contiguous suffix a catch-up would ship.
        for k in 0..=5u64 {
            let lsns: Vec<u64> = fresh_wal.tail_from(k).iter().map(|r| r.lsn).collect();
            assert_eq!(lsns, (k.min(4)..4).collect::<Vec<_>>());
        }
        // The truncated tail is gone: slot 2 is free for the new
        // primary's history.
        assert!(t
            .read(Rid::new(REPL_TABLE, anydb_common::PartitionId(0), 2))
            .is_err());
        assert_eq!(metrics.replay_committed.get(), 2);
        assert_eq!(metrics.replay_inserts.get(), 2);
    }

    #[test]
    fn router_hands_back_ops_on_dead_channels_until_reroute() {
        let (tx, rx) = crossbeam::channel::unbounded::<ClientOp>();
        let (done, _keep) = crossbeam::channel::unbounded();
        let router = Router::new(tx);
        drop(rx); // primary crashed
        let op = ClientOp {
            txn: TxnId(1),
            table: REPL_TABLE,
            tuple: repl_tuple(1),
            done: done.clone(),
        };
        let op = router.submit(op).expect_err("dead channel hands back");
        let (tx2, rx2) = crossbeam::channel::unbounded::<ClientOp>();
        router.reroute(tx2);
        assert!(router.submit(op).is_ok(), "rerouted channel accepts");
        assert_eq!(rx2.try_recv().unwrap().txn, TxnId(1));
    }

    #[test]
    fn ship_records_chunks_on_txn_boundaries() {
        let wal = Wal::new();
        for t in 0..6u64 {
            wal.append(
                TxnId(t),
                LogOp::Insert {
                    table: REPL_TABLE,
                    partition: anydb_common::PartitionId(0),
                    slot: t as u32,
                    tuple: repl_tuple(t as i64),
                },
            );
            wal.append(TxnId(t), LogOp::Commit);
        }
        let (ptx, mut frx) = SimLink::channel::<Bytes>(LinkSpec::instant(), 64);
        let (_ftx, prx) = SimLink::channel::<Bytes>(LinkSpec::instant(), 64);
        let mut slot = FollowerSlot {
            tx: ptx,
            rx: prx,
            acked: 0,
            dead: false,
        };
        let metrics = ReplMetrics::new();
        // Chunk size 3 lands mid-transaction; chunks must extend to the
        // next Commit so each frame replays standalone.
        assert!(ship_records(&mut slot, &wal.snapshot(), 3, &metrics));
        let mut frames = Vec::new();
        while let Ok(f) = frx.try_recv() {
            frames.push(f);
        }
        assert!(frames.len() > 1, "chunking never split");
        let store = repl_store();
        let follower_wal = Wal::new();
        for f in &frames {
            let Ok(ReplMsg::Records(batch)) = ReplMsg::decode(f) else {
                panic!("not a records frame");
            };
            assert!(
                matches!(batch.last().unwrap().op, LogOp::Commit | LogOp::Abort),
                "frame not transaction-closed"
            );
            replay_records(&batch, &store).unwrap();
            follower_wal.extend_shipped(&batch);
        }
        assert_eq!(store.table(REPL_TABLE).unwrap().row_count(), 6);
        assert_eq!(follower_wal.next_lsn(), wal.next_lsn());
    }
}
