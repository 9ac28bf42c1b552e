//! MPMC channels with crossbeam's API shape.
//!
//! Mutex + condvar implementation covering exactly what AnyDB calls:
//! `unbounded`/`bounded` constructors, cloneable senders and receivers,
//! `send`, `try_send`, `recv`, `try_recv`, `recv_timeout`,
//! `same_channel`, disconnect detection on both sides, and the receive
//! half of [`Select`] (`new`, `recv`, `ready_timeout`).
//!
//! One deliberate extension beyond the real crate's API:
//! [`Receiver::try_recv_many`], a bulk non-blocking receive that moves a
//! whole group of messages per lock acquisition. Real crossbeam spells
//! this `try_iter().take(max)`, which locks once per element; when this
//! shim is swapped for the real crate, `try_recv_many` needs a one-line
//! adapter on top of `try_iter` (the call sites are the engine's
//! completion loops — see `anydb-core::engine`).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Error returned by [`Sender::send`] when all receivers are gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// Error returned by [`Sender::try_send`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrySendError<T> {
    /// A bounded channel is at capacity.
    Full(T),
    /// Every receiver has been dropped.
    Disconnected(T),
}

/// Error returned by [`Select::ready_timeout`] when no watched channel
/// became ready in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadyTimeoutError;

/// Error returned by [`Receiver::recv`] when the channel is empty and all
/// senders are gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

/// Error returned by [`Receiver::try_recv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// Channel currently empty; senders still connected.
    Empty,
    /// Channel empty and all senders dropped.
    Disconnected,
}

/// Error returned by [`Receiver::recv_timeout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// Nothing arrived within the timeout.
    Timeout,
    /// Channel empty and all senders dropped.
    Disconnected,
}

struct Shared<T> {
    queue: Mutex<VecDeque<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    cap: Option<usize>,
    senders: AtomicUsize,
    receivers: AtomicUsize,
    /// How many [`Select`]s are watching: a send with none pays this one
    /// load and never touches `selectors`.
    selecting: AtomicUsize,
    selectors: Mutex<Vec<Arc<Signal>>>,
}

impl<T> Shared<T> {
    fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<T>> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Wakes every watching [`Select`]. Called after the queue lock is
    /// released: a selector registers before it takes the queue lock to
    /// check readiness, so either it saw the new state or this load sees
    /// its registration.
    #[inline]
    fn notify_selectors(&self) {
        if self.selecting.load(Ordering::SeqCst) > 0 {
            for s in self
                .selectors
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .iter()
            {
                s.notify();
            }
        }
    }
}

/// One parked [`Select`]'s wake flag.
#[derive(Default)]
struct Signal {
    ready: Mutex<bool>,
    cv: Condvar,
}

impl Signal {
    fn notify(&self) {
        *self.ready.lock().unwrap_or_else(PoisonError::into_inner) = true;
        self.cv.notify_one();
    }
}

/// The sending half. Cloneable (multi-producer).
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// The receiving half. Cloneable (multi-consumer).
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

/// Creates a channel of unlimited capacity.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    channel(None)
}

/// Creates a channel holding at most `cap` messages; `send` blocks when
/// full.
pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    channel(Some(cap))
}

fn channel<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        queue: Mutex::new(VecDeque::new()),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
        cap,
        senders: AtomicUsize::new(1),
        receivers: AtomicUsize::new(1),
        selecting: AtomicUsize::new(0),
        selectors: Mutex::new(Vec::new()),
    });
    (
        Sender {
            shared: shared.clone(),
        },
        Receiver { shared },
    )
}

impl<T> Sender<T> {
    /// Sends a message, blocking while a bounded channel is full. Fails
    /// only when every receiver has been dropped.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let shared = &*self.shared;
        let mut queue = shared.lock();
        loop {
            if shared.receivers.load(Ordering::Acquire) == 0 {
                return Err(SendError(value));
            }
            match shared.cap {
                Some(cap) if queue.len() >= cap => {
                    queue = shared
                        .not_full
                        .wait_timeout(queue, Duration::from_millis(10))
                        .unwrap_or_else(PoisonError::into_inner)
                        .0;
                }
                _ => break,
            }
        }
        queue.push_back(value);
        drop(queue);
        shared.not_empty.notify_one();
        shared.notify_selectors();
        Ok(())
    }

    /// Sends without blocking: fails with `Full` when a bounded channel
    /// is at capacity, `Disconnected` when every receiver is gone.
    pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        let shared = &*self.shared;
        let mut queue = shared.lock();
        if shared.receivers.load(Ordering::Acquire) == 0 {
            return Err(TrySendError::Disconnected(value));
        }
        if shared.cap.is_some_and(|cap| queue.len() >= cap) {
            return Err(TrySendError::Full(value));
        }
        queue.push_back(value);
        drop(queue);
        shared.not_empty.notify_one();
        shared.notify_selectors();
        Ok(())
    }

    /// True if `other` sends into the same channel as `self`.
    pub fn same_channel(&self, other: &Sender<T>) -> bool {
        Arc::ptr_eq(&self.shared, &other.shared)
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.senders.fetch_add(1, Ordering::AcqRel);
        Sender {
            shared: self.shared.clone(),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        if self.shared.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Wake receivers so they observe the disconnect.
            self.shared.not_empty.notify_all();
            // Pass through the queue lock first, as a send does: a
            // selector checks readiness under it, so it either sees the
            // disconnect or is registered before the load below.
            drop(self.shared.lock());
            self.shared.notify_selectors();
        }
    }
}

impl<T> Receiver<T> {
    /// Receives, blocking until a message arrives or all senders are gone.
    pub fn recv(&self) -> Result<T, RecvError> {
        let shared = &*self.shared;
        let mut queue = shared.lock();
        loop {
            if let Some(v) = queue.pop_front() {
                drop(queue);
                shared.not_full.notify_one();
                return Ok(v);
            }
            if shared.senders.load(Ordering::Acquire) == 0 {
                return Err(RecvError);
            }
            queue = shared
                .not_empty
                .wait(queue)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let shared = &*self.shared;
        let mut queue = shared.lock();
        if let Some(v) = queue.pop_front() {
            drop(queue);
            shared.not_full.notify_one();
            return Ok(v);
        }
        if shared.senders.load(Ordering::Acquire) == 0 {
            Err(TryRecvError::Disconnected)
        } else {
            Err(TryRecvError::Empty)
        }
    }

    /// Bulk non-blocking receive: moves up to `max` queued messages into
    /// `out` under a single lock acquisition; returns how many were taken.
    /// `Err(Empty)` / `Err(Disconnected)` when nothing was queued.
    ///
    /// This is the receiver-side mirror of batched event streaming for
    /// the completion path: one mutex crossing covers a whole group of
    /// completion notices instead of one `try_recv` handshake each.
    pub fn try_recv_many(&self, out: &mut Vec<T>, max: usize) -> Result<usize, TryRecvError> {
        debug_assert!(max > 0, "try_recv_many with max = 0 cannot make progress");
        let shared = &*self.shared;
        let mut queue = shared.lock();
        let n = queue.len().min(max);
        if n == 0 {
            drop(queue);
            return if shared.senders.load(Ordering::Acquire) == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            };
        }
        out.extend(queue.drain(..n));
        drop(queue);
        if shared.cap.is_some() {
            // Freed `n` slots; blocked senders of a bounded channel can
            // make progress again.
            shared.not_full.notify_all();
        }
        Ok(n)
    }

    /// Receives with a deadline.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let deadline = Instant::now() + timeout;
        let shared = &*self.shared;
        let mut queue = shared.lock();
        loop {
            if let Some(v) = queue.pop_front() {
                drop(queue);
                shared.not_full.notify_one();
                return Ok(v);
            }
            if shared.senders.load(Ordering::Acquire) == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(RecvTimeoutError::Timeout);
            }
            queue = shared
                .not_empty
                .wait_timeout(queue, deadline - now)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.shared.receivers.fetch_add(1, Ordering::AcqRel);
        Receiver {
            shared: self.shared.clone(),
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        if self.shared.receivers.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.shared.not_full.notify_all();
        }
    }
}

/// Type-erased view of a receiver for [`Select`].
trait Watch {
    /// A message is queued, or every sender is gone (a receive would not
    /// block).
    fn is_ready(&self) -> bool;
    fn watch(&self, signal: &Arc<Signal>);
    fn unwatch(&self, signal: &Arc<Signal>);
}

impl<T> Watch for Receiver<T> {
    fn is_ready(&self) -> bool {
        !self.shared.lock().is_empty() || self.shared.senders.load(Ordering::Acquire) == 0
    }

    fn watch(&self, signal: &Arc<Signal>) {
        let mut selectors = self
            .shared
            .selectors
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        selectors.push(signal.clone());
        self.shared.selecting.fetch_add(1, Ordering::SeqCst);
    }

    fn unwatch(&self, signal: &Arc<Signal>) {
        let mut selectors = self
            .shared
            .selectors
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(i) = selectors.iter().position(|s| Arc::ptr_eq(s, signal)) {
            selectors.swap_remove(i);
            self.shared.selecting.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// Waits until one of several receivers is ready — crossbeam's `Select`,
/// receive operations only.
///
/// Readiness means a receive would not block: a message is queued or
/// every sender is gone (a disconnected channel is always ready, as in
/// crossbeam). The caller then performs the receive itself.
#[derive(Default)]
pub struct Select<'a> {
    handles: Vec<&'a dyn Watch>,
}

impl<'a> Select<'a> {
    /// An empty selector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a receive operation on `r`; returns its index.
    pub fn recv<T>(&mut self, r: &'a Receiver<T>) -> usize {
        self.handles.push(r);
        self.handles.len() - 1
    }

    /// Blocks until a watched receiver is ready or `timeout` elapses;
    /// returns the ready operation's index (the lowest, if several are).
    pub fn ready_timeout(&mut self, timeout: Duration) -> Result<usize, ReadyTimeoutError> {
        let deadline = Instant::now() + timeout;
        let signal = Arc::new(Signal::default());
        // Register before the first readiness check: a send either lands
        // before the check (seen) or finds the registration (rings).
        for h in &self.handles {
            h.watch(&signal);
        }
        let ready = loop {
            if let Some(i) = self.handles.iter().position(|h| h.is_ready()) {
                break Ok(i);
            }
            let mut flag = signal.ready.lock().unwrap_or_else(PoisonError::into_inner);
            while !*flag {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                flag = signal
                    .cv
                    .wait_timeout(flag, deadline - now)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
            if !std::mem::take(&mut *flag) {
                break Err(ReadyTimeoutError);
            }
        };
        for h in &self.handles {
            h.unwatch(&signal);
        }
        ready
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_send_recv() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.try_recv(), Ok(2));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn disconnect_both_ways() {
        let (tx, rx) = unbounded::<u8>();
        drop(tx);
        assert_eq!(rx.recv(), Err(RecvError));
        let (tx, rx) = unbounded::<u8>();
        drop(rx);
        assert_eq!(tx.send(1), Err(SendError(1)));
    }

    #[test]
    fn bounded_blocks_until_space() {
        let (tx, rx) = bounded::<u32>(1);
        tx.send(1).unwrap();
        let h = std::thread::spawn(move || tx.send(2));
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        h.join().unwrap().unwrap();
    }

    #[test]
    fn recv_timeout_times_out_then_delivers() {
        let (tx, rx) = unbounded::<u8>();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(RecvTimeoutError::Timeout)
        );
        tx.send(9).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(50)), Ok(9));
    }

    #[test]
    fn try_recv_many_takes_chunks_in_order() {
        let (tx, rx) = unbounded();
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        let mut out = Vec::new();
        assert_eq!(rx.try_recv_many(&mut out, 4), Ok(4));
        assert_eq!(rx.try_recv_many(&mut out, 100), Ok(6));
        assert_eq!(out, (0..10).collect::<Vec<_>>());
        assert_eq!(rx.try_recv_many(&mut out, 4), Err(TryRecvError::Empty));
        drop(tx);
        assert_eq!(
            rx.try_recv_many(&mut out, 4),
            Err(TryRecvError::Disconnected)
        );
    }

    #[test]
    fn try_recv_many_unblocks_bounded_senders() {
        let (tx, rx) = bounded::<u32>(2);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        let h = std::thread::spawn(move || tx.send(3));
        std::thread::sleep(Duration::from_millis(20));
        let mut out = Vec::new();
        assert_eq!(rx.try_recv_many(&mut out, 8), Ok(2));
        h.join().unwrap().unwrap();
        assert_eq!(rx.recv(), Ok(3));
    }

    #[test]
    fn same_channel_tracks_identity() {
        let (tx, _rx) = unbounded::<u8>();
        let tx2 = tx.clone();
        let (other, _orx) = unbounded::<u8>();
        assert!(tx.same_channel(&tx2));
        assert!(!tx.same_channel(&other));
    }

    #[test]
    fn try_send_reports_full_and_disconnected() {
        let (tx, rx) = bounded::<u8>(1);
        assert_eq!(tx.try_send(1), Ok(()));
        assert_eq!(tx.try_send(2), Err(TrySendError::Full(2)));
        assert_eq!(rx.recv(), Ok(1));
        drop(rx);
        assert_eq!(tx.try_send(3), Err(TrySendError::Disconnected(3)));
    }

    #[test]
    fn select_returns_the_ready_index() {
        let (_atx, arx) = unbounded::<u8>();
        let (btx, brx) = unbounded::<u8>();
        btx.send(7).unwrap();
        let mut sel = Select::new();
        assert_eq!(sel.recv(&arx), 0);
        assert_eq!(sel.recv(&brx), 1);
        assert_eq!(sel.ready_timeout(Duration::from_secs(5)), Ok(1));
        assert_eq!(brx.try_recv(), Ok(7));
    }

    #[test]
    fn select_times_out_when_all_empty() {
        let (_atx, arx) = unbounded::<u8>();
        let (_btx, brx) = bounded::<u8>(1);
        let mut sel = Select::new();
        sel.recv(&arx);
        sel.recv(&brx);
        let start = Instant::now();
        assert_eq!(
            sel.ready_timeout(Duration::from_millis(20)),
            Err(ReadyTimeoutError)
        );
        assert!(start.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn select_counts_disconnected_as_ready() {
        let (_atx, arx) = unbounded::<u8>();
        let (btx, brx) = unbounded::<u8>();
        drop(btx);
        let mut sel = Select::new();
        sel.recv(&arx);
        sel.recv(&brx);
        assert_eq!(sel.ready_timeout(Duration::from_secs(5)), Ok(1));
        assert_eq!(brx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn select_wakes_on_a_later_send_and_disconnect() {
        let (tx, rx) = unbounded::<u8>();
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            tx.send(1).unwrap();
            std::thread::sleep(Duration::from_millis(20));
            drop(tx);
        });
        let start = Instant::now();
        let mut sel = Select::new();
        sel.recv(&rx);
        assert_eq!(sel.ready_timeout(Duration::from_secs(10)), Ok(0));
        assert_eq!(rx.try_recv(), Ok(1));
        assert_eq!(sel.ready_timeout(Duration::from_secs(10)), Ok(0));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        assert!(start.elapsed() < Duration::from_secs(5));
        h.join().unwrap();
        // Every selector deregistered on the way out.
        assert_eq!(rx.shared.selecting.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn a_ring_before_the_wait_is_not_lost() {
        // A bounded(1) doorbell rung before anyone waits keeps its ring:
        // the next select returns at once instead of sleeping it out.
        let (bell, wake) = bounded::<()>(1);
        assert_eq!(bell.try_send(()), Ok(()));
        assert_eq!(bell.try_send(()), Err(TrySendError::Full(())));
        let start = Instant::now();
        let mut sel = Select::new();
        sel.recv(&wake);
        assert_eq!(sel.ready_timeout(Duration::from_secs(10)), Ok(0));
        assert!(start.elapsed() < Duration::from_secs(1));
        assert_eq!(wake.try_recv(), Ok(()));
    }

    #[test]
    fn cross_thread_delivery() {
        let (tx, rx) = unbounded();
        let h = std::thread::spawn(move || {
            for i in 0..1000u32 {
                tx.send(i).unwrap();
            }
        });
        let mut n = 0;
        while let Ok(v) = rx.recv() {
            assert_eq!(v, n);
            n += 1;
        }
        assert_eq!(n, 1000);
        h.join().unwrap();
    }
}
