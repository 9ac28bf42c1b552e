//! Wake-path coverage: a receive parked on an empty link, and an idle
//! loop parked on a link waker, must wake when input arrives — not at
//! the end of a poll interval or a deadline (DESIGN.md §12).

use std::thread;
use std::time::{Duration, Instant};

use anydb_stream::link::DeadlineRecv;
use anydb_stream::{LinkSpec, SimLink};
use crossbeam::channel::{bounded, Select};

#[test]
fn parked_recv_deadline_wakes_on_a_late_send() {
    let (mut tx, mut rx) = SimLink::channel::<u8>(LinkSpec::instant(), 4);
    let sender = thread::spawn(move || {
        thread::sleep(Duration::from_millis(20));
        tx.send_blocking(5, 1).unwrap();
        tx
    });
    let start = Instant::now();
    let got = rx.recv_deadline(start + Duration::from_secs(10));
    let waited = start.elapsed();
    assert_eq!(got, DeadlineRecv::Msg(5));
    assert!(waited < Duration::from_secs(1), "woke late: {waited:?}");
    drop(sender.join().unwrap());
}

#[test]
fn parked_recv_blocking_wakes_on_every_send() {
    // Many send-then-park rounds: each one must wake promptly. A lost
    // ring would stall a round until the next send, which never comes
    // before the receiver answers.
    let (mut tx, mut rx) = SimLink::channel::<u32>(LinkSpec::instant(), 4);
    let (mut back_tx, mut back_rx) = SimLink::channel::<u32>(LinkSpec::instant(), 4);
    let echo = thread::spawn(move || {
        while let Some(v) = rx.recv_blocking() {
            back_tx.send_blocking(v, 4).unwrap();
        }
    });
    let start = Instant::now();
    for i in 0..200u32 {
        tx.send_blocking(i, 4).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        assert_eq!(back_rx.recv_deadline(deadline), DeadlineRecv::Msg(i));
    }
    assert!(start.elapsed() < Duration::from_secs(10));
    drop(tx);
    echo.join().unwrap();
}

#[test]
fn installed_waker_rings_on_push_and_sender_drop() {
    let (mut tx, mut rx) = SimLink::channel::<u8>(LinkSpec::instant(), 4);
    let (waker, wake) = bounded::<()>(1);
    rx.set_waker(waker);
    // A ring that lands before anyone waits is kept for the next wait.
    tx.send(1, 1).unwrap();
    let mut sel = Select::new();
    sel.recv(&wake);
    assert_eq!(sel.ready_timeout(Duration::from_secs(10)), Ok(0));
    assert_eq!(wake.try_recv(), Ok(()));
    assert_eq!(rx.try_recv(), Ok(1));

    // Nothing pushed: the wait runs to its timeout.
    assert!(sel.ready_timeout(Duration::from_millis(10)).is_err());

    // A push from another thread wakes a parked waiter.
    let sender = thread::spawn(move || {
        thread::sleep(Duration::from_millis(20));
        tx.send_many_blocking(vec![2, 3], 2).unwrap();
        thread::sleep(Duration::from_millis(20));
        drop(tx);
    });
    let start = Instant::now();
    assert_eq!(sel.ready_timeout(Duration::from_secs(10)), Ok(0));
    assert_eq!(wake.try_recv(), Ok(()));
    let mut out = Vec::new();
    rx.drain_ready(&mut out);
    assert_eq!(out, vec![2, 3]);
    // The sender's drop rings too, after the link reads disconnected.
    assert_eq!(sel.ready_timeout(Duration::from_secs(10)), Ok(0));
    assert!(start.elapsed() < Duration::from_secs(1));
    sender.join().unwrap();
    assert!(rx.is_disconnected());
}

#[test]
fn one_waker_serves_many_links() {
    let (mut a_tx, mut a_rx) = SimLink::channel::<u8>(LinkSpec::instant(), 4);
    let (mut b_tx, mut b_rx) = SimLink::channel::<u8>(LinkSpec::instant(), 4);
    let (waker, wake) = bounded::<()>(1);
    a_rx.set_waker(waker.clone());
    b_rx.set_waker(waker);
    for (i, tx) in [&mut a_tx, &mut b_tx].into_iter().enumerate() {
        tx.send(i as u8, 1).unwrap();
        let mut sel = Select::new();
        sel.recv(&wake);
        assert_eq!(sel.ready_timeout(Duration::from_secs(10)), Ok(0));
        assert_eq!(wake.try_recv(), Ok(()));
    }
    assert_eq!(a_rx.try_recv(), Ok(0));
    assert_eq!(b_rx.try_recv(), Ok(1));
}
