//! Simulated point-to-point links.
//!
//! A [`SimLink`] is an SPSC ring whose messages become *visible* to the
//! receiver only after a modeled delivery time: `deliver_at = max(now,
//! link_busy_until) + latency + bytes / bandwidth`. The sender tracks
//! `busy_until` to serialize transfers on the link (bandwidth occupancy),
//! exactly like a NIC draining a send queue.
//!
//! This is how the reproduction stands in for hardware we do not have
//! (NUMA interconnects, InfiniBand with DPI flows): the *code path* — a
//! non-blocking receiver that treats in-flight data as "not there yet" —
//! is identical; only the delay constants are modeled. See DESIGN.md §2.
//!
//! Links with zero latency and unlimited bandwidth skip clock reads
//! entirely so OLTP-scale message rates are not throttled by `Instant::now`
//! overhead.
//!
//! A receiver can also install a *waker* ([`LinkReceiver::set_waker`]): a
//! channel the sender rings after every push, so an idle loop parks on
//! it instead of polling (DESIGN.md §12). A link with no waker pays one
//! atomic load per send for this.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Receiver as ChanReceiver, Sender as ChanSender};
use parking_lot::Mutex;

use crate::fault::{FaultAction, FaultSpec, FaultState, FaultStats};
use crate::spsc::{spsc_channel, PopState, PushError, SpscConsumer, SpscProducer};

/// The longest a receive parks on an empty link without re-checking it
/// when no private waker covers the wait (the escalated backoff's sleep
/// step).
const PARK_SLICE: Duration = Duration::from_micros(50);

/// Delivery model parameters for one link direction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// One-way propagation latency added to every message.
    pub latency: Duration,
    /// Bandwidth in bytes/second; `f64::INFINITY` disables transfer cost.
    pub bytes_per_sec: f64,
    /// Whether the link has DPI-style processing offload (flows run on the
    /// "NIC" for free; see [`crate::flow`]).
    pub offload: bool,
}

impl LinkSpec {
    /// An ideal link: no latency, no transfer cost. Messages are visible
    /// immediately; no clock is read on the send path.
    pub const fn instant() -> Self {
        Self {
            latency: Duration::ZERO,
            bytes_per_sec: f64::INFINITY,
            offload: false,
        }
    }

    /// True if the link needs no delivery-time modeling.
    #[inline]
    pub fn is_instant(&self) -> bool {
        self.latency.is_zero() && self.bytes_per_sec.is_infinite()
    }

    /// Pure transfer time of `bytes` at this link's bandwidth.
    #[inline]
    pub fn transfer_time(&self, bytes: usize) -> Duration {
        if self.bytes_per_sec.is_infinite() || bytes == 0 {
            Duration::ZERO
        } else {
            Duration::from_secs_f64(bytes as f64 / self.bytes_per_sec)
        }
    }
}

/// Marker namespace for constructing links.
pub struct SimLink;

impl SimLink {
    /// Creates a simulated link with the given spec and ring capacity.
    pub fn channel<T>(spec: LinkSpec, cap: usize) -> (LinkSender<T>, LinkReceiver<T>) {
        let (tx, rx) = spsc_channel(cap);
        let bell = Arc::new(Doorbell::default());
        (
            LinkSender {
                ring: tx,
                spec,
                busy_until: None,
                faults: None,
                bell: RingOnDrop(bell.clone()),
            },
            LinkReceiver {
                ring: rx,
                spec,
                bell,
                parked_on: None,
            },
        )
    }

    /// Like [`SimLink::channel`] but with a [`FaultSpec`] armed on the
    /// sender from the first message.
    pub fn faulty_channel<T>(
        spec: LinkSpec,
        cap: usize,
        faults: FaultSpec,
    ) -> (LinkSender<T>, LinkReceiver<T>) {
        let (mut tx, rx) = Self::channel(spec, cap);
        tx.inject_faults(faults);
        (tx, rx)
    }
}

/// The waker slot a link's two halves share.
#[derive(Default)]
struct Doorbell {
    /// Set once a waker is installed; the sender's only cost without one.
    armed: AtomicBool,
    waker: Mutex<Option<ChanSender<()>>>,
}

impl Doorbell {
    fn install(&self, waker: ChanSender<()>) {
        *self.waker.lock() = Some(waker);
        self.armed.store(true, Ordering::SeqCst);
    }

    /// Rings the installed waker, if any. A full waker already holds an
    /// unconsumed ring, so a failed `try_send` loses nothing.
    #[inline]
    fn ring(&self) {
        if self.armed.load(Ordering::SeqCst) {
            self.ring_slow();
        }
    }

    #[cold]
    fn ring_slow(&self) {
        if let Some(w) = &*self.waker.lock() {
            let _ = w.try_send(());
        }
    }
}

/// The sender's handle on the doorbell. Declared after the ring in
/// [`LinkSender`] so it drops after it: the final ring then finds the
/// link already disconnected, and a receiver parked on the waker wakes
/// to see that.
struct RingOnDrop(Arc<Doorbell>);

impl Drop for RingOnDrop {
    fn drop(&mut self) {
        self.0.ring();
    }
}

struct Timed<T> {
    /// `None` means deliverable immediately (instant link).
    deliver_at: Option<Instant>,
    item: T,
}

/// Sending half of a simulated link. Single producer.
pub struct LinkSender<T> {
    ring: SpscProducer<Timed<T>>,
    spec: LinkSpec,
    busy_until: Option<Instant>,
    /// Armed fault plan; `None` (the default) costs nothing on the send
    /// path beyond one branch.
    faults: Option<Box<FaultState>>,
    bell: RingOnDrop,
}

/// Receiving half of a simulated link. Single consumer.
pub struct LinkReceiver<T> {
    ring: SpscConsumer<Timed<T>>,
    spec: LinkSpec,
    bell: Arc<Doorbell>,
    /// The receiving end of the waker [`LinkReceiver::recv_deadline`]
    /// installed for itself; `None` until it first parks, or when the
    /// caller installed its own with [`LinkReceiver::set_waker`].
    parked_on: Option<ChanReceiver<()>>,
}

/// Result of a non-blocking receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvState {
    /// No message queued.
    Empty,
    /// A message is in flight; it becomes visible at the given instant.
    NotReady(Instant),
    /// The sender is gone and everything sent has been received.
    Disconnected,
}

/// Result of a deadline-bounded receive ([`LinkReceiver::recv_deadline`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeadlineRecv<T> {
    /// A message was delivered in time.
    Msg(T),
    /// The deadline passed with nothing delivered. The link may still be
    /// healthy (slow, lossy, or idle) — that ambiguity is exactly what
    /// lease-based failure detection must decide on.
    TimedOut,
    /// The sender is gone and everything sent has been received.
    Disconnected,
}

impl<T> LinkSender<T> {
    /// Arms a fault plan on this sender. Every subsequent send consults
    /// it: drops consume the message silently (the send *succeeds* — a
    /// lossy link acks nothing), cuts fail the send exactly like a
    /// receiver disconnect, and delay spikes stretch the modeled delivery
    /// time. Re-arming replaces the previous plan.
    pub fn inject_faults(&mut self, spec: FaultSpec) {
        self.faults = Some(Box::new(FaultState::new(spec)));
    }

    /// What the armed fault plan has done so far (zeroes if none armed).
    pub fn fault_stats(&self) -> FaultStats {
        self.faults.as_ref().map(|f| f.stats()).unwrap_or_default()
    }

    #[inline]
    fn fault_decide(&mut self) -> FaultAction {
        match &mut self.faults {
            Some(f) => f.decide(),
            None => FaultAction::Deliver(Duration::ZERO),
        }
    }

    /// Pushes an injected delay spike onto a computed delivery time. An
    /// instant link's `None` must materialize into a real timestamp —
    /// the spike is the whole point of the fault.
    #[inline]
    fn spiked(deliver_at: Option<Instant>, extra: Duration) -> Option<Instant> {
        if extra.is_zero() {
            deliver_at
        } else {
            Some(deliver_at.unwrap_or_else(Instant::now) + extra)
        }
    }

    /// Sends `item` whose modeled wire size is `bytes`. Fails if the ring
    /// is full (backpressure) or the receiver is gone.
    pub fn send(&mut self, item: T, bytes: usize) -> Result<(), PushError<T>> {
        let extra = match self.fault_decide() {
            FaultAction::Deliver(extra) => extra,
            FaultAction::Drop => return Ok(()),
            FaultAction::Cut => return Err(PushError::Disconnected(item)),
        };
        let deliver_at = Self::spiked(self.compute_deliver_at(bytes), extra);
        self.ring
            .push(Timed { deliver_at, item })
            .map_err(|e| match e {
                PushError::Full(t) => PushError::Full(t.item),
                PushError::Disconnected(t) => PushError::Disconnected(t.item),
            })?;
        self.bell.0.ring();
        Ok(())
    }

    /// Sends, spinning under backpressure. Returns the item if the
    /// receiver disconnected.
    pub fn send_blocking(&mut self, item: T, bytes: usize) -> Result<(), T> {
        let extra = match self.fault_decide() {
            FaultAction::Deliver(extra) => extra,
            FaultAction::Drop => return Ok(()),
            FaultAction::Cut => return Err(item),
        };
        let deliver_at = Self::spiked(self.compute_deliver_at(bytes), extra);
        self.ring
            .push_blocking(Timed { deliver_at, item })
            .map_err(|t| t.item)?;
        self.bell.0.ring();
        Ok(())
    }

    /// Bulk send: ships every item as one wire transfer of `total_bytes`.
    ///
    /// All items share a single modeled delivery time — exactly how one
    /// batched message behaves on a real link — so the whole group costs
    /// one clock read and one `busy_until` update instead of one per item,
    /// and the ring crossing uses the bulk [`SpscProducer::push_drain`]
    /// path. Spins under backpressure; returns `Err(remaining)` count if
    /// the receiver disconnects mid-batch.
    ///
    /// Use this when the group really is one logical message. For a
    /// sequence of *separate* transfers (a scan's batches), use
    /// [`LinkSender::send_pipelined_blocking`], which keeps per-item
    /// delivery times so the receiver can overlap consumption with the
    /// rest of the transfer.
    pub fn send_many_blocking(&mut self, items: Vec<T>, total_bytes: usize) -> Result<(), usize> {
        // One fault decision for the batch: it is one wire message.
        let extra = match self.fault_decide() {
            FaultAction::Deliver(extra) => extra,
            FaultAction::Drop => return Ok(()),
            FaultAction::Cut => return Err(items.len()),
        };
        let deliver_at = Self::spiked(self.compute_deliver_at(total_bytes), extra);
        let timed: Vec<Timed<T>> = items
            .into_iter()
            .map(|item| Timed { deliver_at, item })
            .collect();
        self.push_all(timed)
    }

    /// Bulk send of *separate* transfers: each item keeps its own wire
    /// size and serialized delivery time (transfer `k+1` starts when `k`
    /// leaves the link), preserving the transfer/compute overlap of a
    /// `send_blocking` loop — but the whole group costs one clock read,
    /// and the ring crossing uses the bulk path. Spins under
    /// backpressure; returns `Err(remaining)` on receiver disconnect.
    pub fn send_pipelined_blocking(
        &mut self,
        items: impl IntoIterator<Item = (T, usize)>,
    ) -> Result<(), usize> {
        let now = if self.spec.is_instant() {
            None
        } else {
            Some(Instant::now())
        };
        // Each transfer is a separate wire message, so each gets its own
        // fault decision: drops skip the item, a cut refuses it and
        // everything after it (reported like a mid-batch disconnect).
        let mut cut_remaining = 0usize;
        let mut items = items.into_iter();
        let mut timed: Vec<Timed<T>> = Vec::new();
        for (item, bytes) in items.by_ref() {
            let extra = match self.fault_decide() {
                FaultAction::Deliver(extra) => extra,
                FaultAction::Drop => continue,
                FaultAction::Cut => {
                    cut_remaining = 1;
                    break;
                }
            };
            let deliver_at = now.map(|now| {
                let start = match self.busy_until {
                    Some(b) if b > now => b,
                    _ => now,
                };
                let busy = start + self.spec.transfer_time(bytes);
                self.busy_until = Some(busy);
                busy + self.spec.latency
            });
            timed.push(Timed {
                deliver_at: Self::spiked(deliver_at, extra),
                item,
            });
        }
        if cut_remaining > 0 {
            cut_remaining += items.count();
        }
        let pushed = self.push_all(timed);
        match (pushed, cut_remaining) {
            (Ok(()), 0) => Ok(()),
            (Ok(()), n) => Err(n),
            (Err(left), n) => Err(left + n),
        }
    }

    fn push_all(&mut self, mut timed: Vec<Timed<T>>) -> Result<(), usize> {
        while !timed.is_empty() {
            match self.ring.push_drain(&mut timed) {
                Ok(0) => {
                    std::hint::spin_loop();
                    std::thread::yield_now();
                }
                // Ring per pushed chunk, not once at the end: a parked
                // receiver must wake to make room for the rest.
                Ok(_) => self.bell.0.ring(),
                Err(_) => return Err(timed.len()),
            }
        }
        Ok(())
    }

    fn compute_deliver_at(&mut self, bytes: usize) -> Option<Instant> {
        if self.spec.is_instant() {
            return None;
        }
        let now = Instant::now();
        let start = match self.busy_until {
            Some(b) if b > now => b,
            _ => now,
        };
        let xfer = self.spec.transfer_time(bytes);
        // The link is occupied while the payload is on the wire; latency is
        // propagation delay and does not occupy the link.
        self.busy_until = Some(start + xfer);
        Some(start + xfer + self.spec.latency)
    }

    /// When the link becomes free to start the next transfer (used by
    /// tests and by flow senders to model pipelining).
    pub fn busy_until(&self) -> Option<Instant> {
        self.busy_until
    }

    /// The link spec.
    pub fn spec(&self) -> LinkSpec {
        self.spec
    }

    /// True if the receiving half was dropped.
    pub fn is_disconnected(&self) -> bool {
        self.ring.is_disconnected()
    }

    /// Number of queued (possibly in-flight) messages.
    pub fn queued(&self) -> usize {
        self.ring.len()
    }
}

impl<T> LinkReceiver<T> {
    /// Non-blocking receive respecting modeled delivery time.
    pub fn try_recv(&mut self) -> Result<T, RecvState> {
        match self.ring.peek() {
            Some(timed) => {
                if let Some(at) = timed.deliver_at {
                    if at > Instant::now() {
                        return Err(RecvState::NotReady(at));
                    }
                }
                match self.ring.pop() {
                    Ok(t) => Ok(t.item),
                    // unreachable in SPSC (we just peeked), but degrade
                    // gracefully rather than panic.
                    Err(PopState::Empty) => Err(RecvState::Empty),
                    Err(PopState::Disconnected) => Err(RecvState::Disconnected),
                }
            }
            None => {
                if self.ring.is_disconnected() && self.ring.is_empty() {
                    Err(RecvState::Disconnected)
                } else {
                    Err(RecvState::Empty)
                }
            }
        }
    }

    /// Receives, waiting until a message is delivered; `None` on
    /// disconnect. A message that is queued but still "in flight" puts
    /// the caller to sleep until its modeled delivery time — receivers
    /// must not burn a core waiting for the network, especially on small
    /// hosts where that core belongs to the producer. An empty link is
    /// polled through the spin and yield steps of a [`Backoff`], then
    /// waited on with the link's waker.
    ///
    /// [`Backoff`]: anydb_common::backoff::Backoff
    pub fn recv_blocking(&mut self) -> Option<T> {
        match self.recv_until(None) {
            DeadlineRecv::Msg(v) => Some(v),
            _ => None,
        }
    }

    /// Receives with a deadline: waits like [`LinkReceiver::recv_blocking`]
    /// but gives up at `deadline`. A message that would be *delivered*
    /// after the deadline counts as a timeout — the caller's clock, not
    /// the wire's, decides. This is what failure detection (leases) and
    /// request retries are built on.
    pub fn recv_deadline(&mut self, deadline: Instant) -> DeadlineRecv<T> {
        self.recv_until(Some(deadline))
    }

    fn recv_until(&mut self, deadline: Option<Instant>) -> DeadlineRecv<T> {
        let mut backoff = anydb_common::backoff::Backoff::new();
        let passed = |now: Instant| deadline.is_some_and(|d| now >= d);
        loop {
            match self.try_recv() {
                Ok(v) => return DeadlineRecv::Msg(v),
                Err(RecvState::Disconnected) => return DeadlineRecv::Disconnected,
                Err(RecvState::NotReady(at)) => {
                    let now = Instant::now();
                    if passed(now) {
                        return DeadlineRecv::TimedOut;
                    }
                    let until = deadline.map_or(at, |d| at.min(d));
                    if until > now {
                        std::thread::sleep(until - now);
                    }
                }
                Err(RecvState::Empty) => {
                    if passed(Instant::now()) {
                        return DeadlineRecv::TimedOut;
                    }
                    if backoff.is_parked() {
                        self.park(deadline);
                    } else {
                        backoff.wait();
                    }
                }
            }
        }
    }

    /// Installs `waker` on this link: from now on every push, and the
    /// sender's drop, `try_send`s `()` into it. Several links may share
    /// one waker, so one idle loop can wait on all of them. Give it
    /// capacity 1 (`bounded(1)`): one pending ring is all a waiter needs.
    /// Replaces any earlier waker.
    ///
    /// A push racing this call may not ring, so check the link once
    /// after installing, and keep every wait bounded (DESIGN.md §12).
    pub fn set_waker(&mut self, waker: ChanSender<()>) {
        self.parked_on = None;
        self.bell.install(waker);
    }

    /// Parks an empty-link receive until the next push rings the waker
    /// or `deadline` passes. The first park installs a private waker and
    /// caps its wait at [`PARK_SLICE`], which covers a push that raced
    /// the install. With a caller-installed waker (one this receiver
    /// cannot consume), each park is one [`PARK_SLICE`] sleep.
    fn park(&mut self, deadline: Option<Instant>) {
        let left = deadline.map(|d| d.saturating_duration_since(Instant::now()));
        let slice = left.map_or(PARK_SLICE, |l| l.min(PARK_SLICE));
        match &self.parked_on {
            Some(wake) => {
                let _ = match left {
                    Some(left) => wake.recv_timeout(left).ok(),
                    None => wake.recv().ok(),
                };
            }
            None if self.bell.armed.load(Ordering::SeqCst) => std::thread::sleep(slice),
            None => {
                let (waker, wake) = bounded(1);
                self.bell.install(waker);
                let _ = wake.recv_timeout(slice);
                self.parked_on = Some(wake);
            }
        }
    }

    /// Drains every message that is already deliverable into `out`;
    /// returns how many were drained.
    pub fn drain_ready(&mut self, out: &mut Vec<T>) -> usize {
        self.drain_ready_max(out, usize::MAX)
    }

    /// Like [`LinkReceiver::drain_ready`] but takes at most `max`
    /// messages, and reads the clock once for the whole drain instead of
    /// once per message (in-flight checks compare against that one
    /// timestamp — correct because delivery times are monotone per link).
    pub fn drain_ready_max(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        if max == 0 {
            return 0;
        }
        let mut now: Option<Instant> = None;
        let mut n = 0;
        while n < max {
            match self.ring.peek() {
                Some(timed) => {
                    if let Some(at) = timed.deliver_at {
                        let now = *now.get_or_insert_with(Instant::now);
                        if at > now {
                            break;
                        }
                    }
                    match self.ring.pop() {
                        Ok(t) => {
                            out.push(t.item);
                            n += 1;
                        }
                        Err(_) => break,
                    }
                }
                None => break,
            }
        }
        n
    }

    /// The link spec.
    pub fn spec(&self) -> LinkSpec {
        self.spec
    }

    /// True if the sender is gone (messages may still be in flight).
    pub fn is_disconnected(&self) -> bool {
        self.ring.is_disconnected()
    }

    /// Number of queued (possibly undeliverable yet) messages.
    pub fn queued(&self) -> usize {
        self.ring.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instant_link_delivers_immediately() {
        let (mut tx, mut rx) = SimLink::channel(LinkSpec::instant(), 8);
        tx.send(1u32, 1024).unwrap();
        assert_eq!(rx.try_recv(), Ok(1));
    }

    #[test]
    fn latency_delays_delivery() {
        let spec = LinkSpec {
            latency: Duration::from_millis(20),
            bytes_per_sec: f64::INFINITY,
            offload: false,
        };
        let (mut tx, mut rx) = SimLink::channel(spec, 8);
        tx.send(7u32, 0).unwrap();
        match rx.try_recv() {
            Err(RecvState::NotReady(_)) => {}
            other => panic!("expected NotReady, got {other:?}"),
        }
        std::thread::sleep(Duration::from_millis(25));
        assert_eq!(rx.try_recv(), Ok(7));
    }

    #[test]
    fn bandwidth_scales_with_size() {
        // 1 MB at 100 MB/s = 10ms.
        let spec = LinkSpec {
            latency: Duration::ZERO,
            bytes_per_sec: 100.0 * 1024.0 * 1024.0,
            offload: false,
        };
        let (mut tx, mut rx) = SimLink::channel(spec, 8);
        let start = Instant::now();
        tx.send((), 1024 * 1024).unwrap();
        let v = rx.recv_blocking();
        let elapsed = start.elapsed();
        assert!(v.is_some());
        assert!(
            elapsed >= Duration::from_millis(9),
            "delivered too early: {elapsed:?}"
        );
    }

    #[test]
    fn transfers_serialize_on_the_link() {
        // Two 10ms transfers must take ~20ms total, not 10ms.
        let spec = LinkSpec {
            latency: Duration::ZERO,
            bytes_per_sec: 100.0 * 1024.0 * 1024.0,
            offload: false,
        };
        let (mut tx, mut rx) = SimLink::channel(spec, 8);
        let start = Instant::now();
        tx.send(1u8, 1024 * 1024).unwrap();
        tx.send(2u8, 1024 * 1024).unwrap();
        assert_eq!(rx.recv_blocking(), Some(1));
        assert_eq!(rx.recv_blocking(), Some(2));
        let elapsed = start.elapsed();
        assert!(
            elapsed >= Duration::from_millis(18),
            "transfers overlapped: {elapsed:?}"
        );
    }

    #[test]
    fn fifo_even_with_delays() {
        let spec = LinkSpec {
            latency: Duration::from_micros(100),
            bytes_per_sec: 1e9,
            offload: false,
        };
        let (mut tx, mut rx) = SimLink::channel(spec, 64);
        for i in 0..32u32 {
            tx.send(i, 100).unwrap();
        }
        for i in 0..32u32 {
            assert_eq!(rx.recv_blocking(), Some(i));
        }
    }

    #[test]
    fn disconnect_propagates() {
        let (tx, mut rx) = SimLink::channel::<u8>(LinkSpec::instant(), 4);
        drop(tx);
        assert_eq!(rx.try_recv(), Err(RecvState::Disconnected));
    }

    #[test]
    fn in_flight_message_survives_sender_drop() {
        let spec = LinkSpec {
            latency: Duration::from_millis(10),
            bytes_per_sec: f64::INFINITY,
            offload: false,
        };
        let (mut tx, mut rx) = SimLink::channel(spec, 4);
        tx.send(9u8, 0).unwrap();
        drop(tx);
        // Still in flight: NotReady, not Disconnected.
        assert!(matches!(rx.try_recv(), Err(RecvState::NotReady(_))));
        std::thread::sleep(Duration::from_millis(12));
        assert_eq!(rx.try_recv(), Ok(9));
        assert_eq!(rx.try_recv(), Err(RecvState::Disconnected));
    }

    #[test]
    fn drain_ready_takes_only_delivered() {
        let spec = LinkSpec {
            latency: Duration::from_millis(30),
            bytes_per_sec: f64::INFINITY,
            offload: false,
        };
        let (mut tx, mut rx) = SimLink::channel(spec, 8);
        tx.send(1u8, 0).unwrap();
        let mut out = Vec::new();
        assert_eq!(rx.drain_ready(&mut out), 0);
        std::thread::sleep(Duration::from_millis(35));
        tx.send(2u8, 0).unwrap(); // not deliverable yet
        assert_eq!(rx.drain_ready(&mut out), 1);
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn send_many_shares_one_delivery_time() {
        // A 10-message batch of 1 MB total at 100 MB/s occupies the link
        // for one 10 ms transfer, not ten serialized ones. Asserted on
        // the modeled `busy_until` (deterministic), not wall-clock
        // delivery, which a loaded 1-core host can delay arbitrarily.
        let spec = LinkSpec {
            latency: Duration::ZERO,
            bytes_per_sec: 100.0 * 1024.0 * 1024.0,
            offload: false,
        };
        let (mut tx, mut rx) = SimLink::channel(spec, 16);
        let start = Instant::now();
        tx.send_many_blocking((0..10u8).collect(), 1024 * 1024)
            .unwrap();
        let busy = tx.busy_until().expect("transfer modeled") - start;
        assert!(
            busy < Duration::from_millis(50),
            "batch occupied the link per-message: {busy:?}"
        );
        let mut out = Vec::new();
        while out.len() < 10 {
            match rx.recv_blocking() {
                Some(v) => out.push(v),
                None => break,
            }
        }
        let elapsed = start.elapsed();
        assert_eq!(out, (0..10).collect::<Vec<_>>());
        assert!(
            elapsed >= Duration::from_millis(9),
            "too early: {elapsed:?}"
        );
    }

    #[test]
    fn send_pipelined_keeps_per_item_transfers() {
        // Two 10 ms transfers shipped with one call still serialize on
        // the link: the first is deliverable ~10 ms in, the second ~20 ms
        // — so a consumer can overlap work with the in-flight remainder.
        let spec = LinkSpec {
            latency: Duration::ZERO,
            bytes_per_sec: 100.0 * 1024.0 * 1024.0,
            offload: false,
        };
        let (mut tx, mut rx) = SimLink::channel(spec, 16);
        let start = Instant::now();
        tx.send_pipelined_blocking([(1u8, 1024 * 1024), (2u8, 1024 * 1024)])
            .unwrap();
        let busy = tx.busy_until().expect("transfers modeled") - start;
        assert!(
            busy >= Duration::from_millis(18),
            "transfers overlapped on the link: {busy:?}"
        );
        assert_eq!(rx.recv_blocking(), Some(1));
        assert_eq!(rx.recv_blocking(), Some(2));
        assert!(start.elapsed() >= Duration::from_millis(18));
    }

    #[test]
    fn send_many_reports_disconnect_with_remainder() {
        let (mut tx, rx) = SimLink::channel::<u8>(LinkSpec::instant(), 4);
        drop(rx);
        assert_eq!(tx.send_many_blocking(vec![1, 2, 3], 30), Err(3));
    }

    #[test]
    fn drain_ready_max_caps_the_chunk() {
        let (mut tx, mut rx) = SimLink::channel(LinkSpec::instant(), 16);
        tx.send_many_blocking((0..10u32).collect(), 0).unwrap();
        let mut out = Vec::new();
        assert_eq!(rx.drain_ready_max(&mut out, 4), 4);
        assert_eq!(rx.drain_ready_max(&mut out, 100), 6);
        assert_eq!(out, (0..10).collect::<Vec<_>>());
        assert_eq!(rx.drain_ready_max(&mut out, 4), 0);
    }

    #[test]
    fn dropped_sends_succeed_but_never_arrive() {
        let faults = FaultSpec::new(5).drop_prob(1.0);
        let (mut tx, mut rx) = SimLink::faulty_channel(LinkSpec::instant(), 8, faults);
        for i in 0..10u8 {
            tx.send_blocking(i, 1).unwrap();
        }
        assert_eq!(rx.try_recv(), Err(RecvState::Empty));
        assert_eq!(tx.fault_stats().dropped, 10);
        assert_eq!(tx.fault_stats().delivered, 0);
    }

    #[test]
    fn cut_link_fails_sends_like_disconnect() {
        let faults = FaultSpec::new(5).cut_after_msgs(2);
        let (mut tx, mut rx) = SimLink::faulty_channel(LinkSpec::instant(), 8, faults);
        tx.send_blocking(1u8, 1).unwrap();
        tx.send_blocking(2u8, 1).unwrap();
        assert_eq!(tx.send_blocking(3u8, 1), Err(3));
        // The two pre-cut messages still arrive; the receiver then just
        // sees silence (the sender is alive, the link is dark).
        assert_eq!(rx.try_recv(), Ok(1));
        assert_eq!(rx.try_recv(), Ok(2));
        assert_eq!(rx.try_recv(), Err(RecvState::Empty));
    }

    #[test]
    fn delay_spike_stretches_instant_links() {
        let faults = FaultSpec::new(5).delay(1.0, Duration::from_millis(20));
        let (mut tx, mut rx) = SimLink::faulty_channel(LinkSpec::instant(), 8, faults);
        tx.send_blocking(9u8, 1).unwrap();
        assert!(matches!(rx.try_recv(), Err(RecvState::NotReady(_))));
        std::thread::sleep(Duration::from_millis(25));
        assert_eq!(rx.try_recv(), Ok(9));
        assert_eq!(tx.fault_stats().delayed, 1);
    }

    #[test]
    fn pipelined_send_reports_cut_remainder() {
        let faults = FaultSpec::new(5).cut_after_msgs(1);
        let (mut tx, _rx) = SimLink::faulty_channel(LinkSpec::instant(), 8, faults);
        let items: Vec<(u8, usize)> = (0..5).map(|i| (i, 1)).collect();
        assert_eq!(tx.send_pipelined_blocking(items), Err(4));
    }

    #[test]
    fn recv_deadline_times_out_then_delivers() {
        let (mut tx, mut rx) = SimLink::channel::<u8>(LinkSpec::instant(), 8);
        let deadline = Instant::now() + Duration::from_millis(10);
        assert_eq!(rx.recv_deadline(deadline), DeadlineRecv::TimedOut);
        tx.send_blocking(4u8, 1).unwrap();
        let deadline = Instant::now() + Duration::from_millis(100);
        assert_eq!(rx.recv_deadline(deadline), DeadlineRecv::Msg(4));
        drop(tx);
        let deadline = Instant::now() + Duration::from_millis(100);
        assert_eq!(rx.recv_deadline(deadline), DeadlineRecv::Disconnected);
    }

    #[test]
    fn recv_deadline_expires_on_in_flight_message() {
        let spec = LinkSpec {
            latency: Duration::from_millis(50),
            bytes_per_sec: f64::INFINITY,
            offload: false,
        };
        let (mut tx, mut rx) = SimLink::channel(spec, 8);
        tx.send(1u8, 0).unwrap();
        // Delivery is 50ms out; a 5ms deadline must not wait for it.
        let start = Instant::now();
        let got = rx.recv_deadline(start + Duration::from_millis(5));
        assert_eq!(got, DeadlineRecv::TimedOut);
        assert!(start.elapsed() < Duration::from_millis(45));
    }

    #[test]
    fn transfer_time_math() {
        let spec = LinkSpec {
            latency: Duration::ZERO,
            bytes_per_sec: 1000.0,
            offload: false,
        };
        assert_eq!(spec.transfer_time(500), Duration::from_millis(500));
        assert_eq!(LinkSpec::instant().transfer_time(1 << 30), Duration::ZERO);
    }
}
