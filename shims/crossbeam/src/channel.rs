//! MPMC channels with crossbeam's API and disconnect semantics.
//!
//! * `send` on a channel whose receivers are all gone fails immediately
//!   (even if the buffer has space) — delivery would be pointless.
//! * `recv` drains queued messages even after every sender is gone, and
//!   only then reports disconnection.
//!
//! A `send` or `recv` that finds nobody asleep on the other side makes no
//! syscall: the number of parked receivers and senders is kept in the
//! state the mutex guards, and a condvar is notified only when that number
//! is non-zero (std's futex condvar would otherwise pay a `futex_wake` per
//! call). A sleeper raises its count under the lock that `wait` releases,
//! and the other side reads the count under the same lock after changing
//! the queue, so it either sees the sleeper or the sleeper saw the change.
//! Nor does it notify a sleeper that already has a wake-up on its way: a
//! woken thread leaves the count only once it holds the lock again, so the
//! wake-ups in flight are counted too, and the other side notifies only
//! while the sleepers outnumber them. Each sleeper that gets back the lock
//! — woken, timed out or spuriously — takes one in-flight wake-up off the
//! count, so there are never more of them than sleepers on their way back,
//! each of whom looks at the queue before it parks again.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

struct State<T> {
    queue: VecDeque<T>,
    /// `None` = unbounded.
    capacity: Option<usize>,
    senders: usize,
    receivers: usize,
    /// Receivers parked on `not_empty` / senders parked on `not_full`.
    sleeping_receivers: Sleepers,
    sleeping_senders: Sleepers,
    /// Acquisitions of the mutex guarding this state through
    /// [`Shared::lock`], and condvar notifications other than a
    /// disconnect's; tests pin how many an operation takes.
    #[cfg(test)]
    acquisitions: u64,
    #[cfg(test)]
    notifies: u64,
}

impl<T> State<T> {
    /// Counts one acquisition of the lock the caller holds (test builds).
    #[inline(always)]
    fn acquired(&mut self) {
        #[cfg(test)]
        {
            self.acquisitions += 1;
        }
    }

    /// Counts `n` notifications (test builds).
    #[inline(always)]
    fn notifying(&mut self, n: usize) {
        #[cfg(test)]
        {
            self.notifies += n as u64;
        }
        let _ = n;
    }
}

/// The threads parked on one condvar, and the wake-ups on their way to
/// them (module docs).
#[derive(Default)]
struct Sleepers {
    parked: usize,
    waking: usize,
}

impl Sleepers {
    /// How many of `n` wake-ups to send: as many as there are parked
    /// threads without one on its way, at most; they are now on their way.
    fn claim(&mut self, n: usize) -> usize {
        let wake = n.min(self.parked - self.waking);
        self.waking += wake;
        wake
    }

    /// A parked thread holds the lock again.
    fn woke(&mut self) {
        self.parked -= 1;
        self.waking = self.waking.saturating_sub(1);
    }
}

struct Shared<T> {
    state: Mutex<State<T>>,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> Shared<T> {
    /// Takes the state lock: every operation of the channel comes through
    /// here (re-acquisitions after a condvar wait are not counted).
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        let mut state = self.state.lock().unwrap();
        state.acquired();
        state
    }

    fn new(capacity: Option<usize>) -> Arc<Self> {
        Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                capacity,
                senders: 1,
                receivers: 1,
                sleeping_receivers: Sleepers::default(),
                sleeping_senders: Sleepers::default(),
                #[cfg(test)]
                acquisitions: 0,
                #[cfg(test)]
                notifies: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        })
    }

    /// Unlocks after a push and wakes one parked receiver, if one has no
    /// wake-up on its way.
    fn pushed(&self, mut state: MutexGuard<'_, State<T>>) {
        let wake = state.sleeping_receivers.claim(1);
        state.notifying(wake);
        drop(state);
        if wake > 0 {
            self.not_empty.notify_one();
        }
    }

    /// Unlocks after `popped` pops and wakes as many parked senders, at
    /// most, as have no wake-up on its way.
    fn popped(&self, mut state: MutexGuard<'_, State<T>>, popped: usize) {
        let wake = state.sleeping_senders.claim(popped);
        state.notifying(wake);
        drop(state);
        for _ in 0..wake {
            self.not_full.notify_one();
        }
    }
}

/// Creates a bounded channel with the given capacity.
///
/// # Panics
///
/// Panics if `capacity` is 0 (rendezvous channels are not supported by
/// this shim; the workspace never creates them).
pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    assert!(capacity > 0, "zero-capacity channels are not supported");
    let shared = Shared::new(Some(capacity));
    (Sender { shared: Arc::clone(&shared) }, Receiver { shared })
}

/// Creates an unbounded channel.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    let shared = Shared::new(None);
    (Sender { shared: Arc::clone(&shared) }, Receiver { shared })
}

/// Error returned by [`Sender::send`] when all receivers are gone.
pub struct SendError<T>(pub T);

impl<T> fmt::Debug for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SendError(..)")
    }
}

impl<T> fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("sending on a disconnected channel")
    }
}

/// Error returned by [`Sender::try_send`].
pub enum TrySendError<T> {
    /// The channel is full; the message is handed back.
    Full(T),
    /// All receivers are gone; the message is handed back.
    Disconnected(T),
}

impl<T> fmt::Debug for TrySendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrySendError::Full(_) => f.write_str("Full(..)"),
            TrySendError::Disconnected(_) => f.write_str("Disconnected(..)"),
        }
    }
}

/// Error returned by [`Receiver::recv`] when the channel is drained and all
/// senders are gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("receiving on an empty and disconnected channel")
    }
}

impl std::error::Error for RecvError {}

/// Error returned by [`Receiver::try_recv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// The channel is currently empty.
    Empty,
    /// The channel is empty and all senders are gone.
    Disconnected,
}

/// Error returned by [`Receiver::recv_timeout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// No message arrived within the timeout.
    Timeout,
    /// The channel is empty and all senders are gone.
    Disconnected,
}

/// The sending half of a channel. Cloneable.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Sender<T> {
    /// Sends a message, blocking while a bounded channel is full.
    ///
    /// # Errors
    ///
    /// Returns the message if every receiver has been dropped.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut state = self.shared.lock();
        loop {
            if state.receivers == 0 {
                return Err(SendError(value));
            }
            let full = state.capacity.is_some_and(|c| state.queue.len() >= c);
            if !full {
                state.queue.push_back(value);
                self.shared.pushed(state);
                return Ok(());
            }
            state.sleeping_senders.parked += 1;
            state = self.shared.not_full.wait(state).unwrap();
            state.sleeping_senders.woke();
        }
    }

    /// Sends without blocking.
    ///
    /// # Errors
    ///
    /// [`TrySendError::Full`] when a bounded channel is at capacity,
    /// [`TrySendError::Disconnected`] when every receiver is gone.
    pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        let mut state = self.shared.lock();
        if state.receivers == 0 {
            return Err(TrySendError::Disconnected(value));
        }
        if state.capacity.is_some_and(|c| state.queue.len() >= c) {
            return Err(TrySendError::Full(value));
        }
        state.queue.push_back(value);
        self.shared.pushed(state);
        Ok(())
    }

    /// The number of queued messages.
    pub fn len(&self) -> usize {
        self.shared.lock().queue.len()
    }

    /// Whether the channel is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.lock().senders += 1;
        Sender { shared: Arc::clone(&self.shared) }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut state = self.shared.lock();
        state.senders -= 1;
        if state.senders == 0 {
            drop(state);
            // Wake receivers blocked on an empty queue so they observe
            // disconnection.
            self.shared.not_empty.notify_all();
        }
    }
}

/// The receiving half of a channel. Cloneable.
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Receiver<T> {
    /// Receives a message, blocking while the channel is empty.
    ///
    /// # Errors
    ///
    /// Returns [`RecvError`] once the channel is empty *and* every sender
    /// has been dropped.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut state = self.shared.lock();
        loop {
            if let Some(value) = state.queue.pop_front() {
                self.shared.popped(state, 1);
                return Ok(value);
            }
            if state.senders == 0 {
                return Err(RecvError);
            }
            state.sleeping_receivers.parked += 1;
            state = self.shared.not_empty.wait(state).unwrap();
            state.sleeping_receivers.woke();
        }
    }

    /// Receives without blocking.
    ///
    /// # Errors
    ///
    /// [`TryRecvError::Empty`] when nothing is queued,
    /// [`TryRecvError::Disconnected`] when additionally all senders are
    /// gone.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut state = self.shared.lock();
        match state.queue.pop_front() {
            Some(value) => {
                self.shared.popped(state, 1);
                Ok(value)
            }
            None if state.senders == 0 => Err(TryRecvError::Disconnected),
            None => Err(TryRecvError::Empty),
        }
    }

    /// Receives with a deadline.
    ///
    /// # Errors
    ///
    /// [`RecvTimeoutError::Timeout`] when nothing arrived in time,
    /// [`RecvTimeoutError::Disconnected`] when the channel is drained and
    /// all senders are gone.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let deadline = Instant::now() + timeout;
        let mut state = self.shared.lock();
        loop {
            if let Some(value) = state.queue.pop_front() {
                self.shared.popped(state, 1);
                return Ok(value);
            }
            if state.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(RecvTimeoutError::Timeout);
            }
            state.sleeping_receivers.parked += 1;
            let (guard, result) =
                self.shared.not_empty.wait_timeout(state, deadline - now).unwrap();
            state = guard;
            state.sleeping_receivers.woke();
            if result.timed_out() && state.queue.is_empty() {
                if state.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                return Err(RecvTimeoutError::Timeout);
            }
        }
    }

    /// The number of queued messages.
    pub fn len(&self) -> usize {
        self.shared.lock().queue.len()
    }

    /// Whether the channel is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// An iterator over the messages queued now, without blocking: it ends
    /// at the first empty queue, disconnected or not.
    ///
    /// The iterator takes the channel's lock once and holds it while it
    /// lives, so senders wait meanwhile and a send into the same channel
    /// from inside the loop deadlocks: collect it at once, as
    /// `Subscriber::drain` does. For that use the real crate's lock-free
    /// `try_iter` gives the same messages in the same order (it may also
    /// take ones sent while it runs).
    pub fn try_iter(&self) -> TryIter<'_, T> {
        TryIter { shared: &self.shared, state: Some(self.shared.lock()), taken: 0 }
    }
}

/// The iterator [`Receiver::try_iter`] returns. Its size hint is exact, so
/// `Vec::extend` reserves once; dropping it wakes as many parked senders as
/// it made room for, less those already on their way.
pub struct TryIter<'a, T> {
    shared: &'a Shared<T>,
    /// Held from creation until `drop` takes it to unlock before notifying.
    state: Option<MutexGuard<'a, State<T>>>,
    taken: usize,
}

impl<T> Iterator for TryIter<'_, T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        let value = self.state.as_mut()?.queue.pop_front()?;
        self.taken += 1;
        Some(value)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let len = self.state.as_ref().map_or(0, |state| state.queue.len());
        (len, Some(len))
    }
}

impl<T> Drop for TryIter<'_, T> {
    fn drop(&mut self) {
        let Some(state) = self.state.take() else { return };
        self.shared.popped(state, self.taken);
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.shared.lock().receivers += 1;
        Receiver { shared: Arc::clone(&self.shared) }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut state = self.shared.lock();
        state.receivers -= 1;
        if state.receivers == 0 {
            drop(state);
            // Wake senders blocked on a full queue so they observe
            // disconnection.
            self.shared.not_full.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_unbounded() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.len(), 2);
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.try_recv(), Ok(2));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn bounded_try_send_full() {
        let (tx, rx) = bounded(1);
        tx.try_send(1).unwrap();
        assert!(matches!(tx.try_send(2), Err(TrySendError::Full(2))));
        drop(rx);
        assert!(matches!(tx.try_send(3), Err(TrySendError::Disconnected(3))));
    }

    #[test]
    fn drained_then_disconnected() {
        let (tx, rx) = unbounded();
        tx.send(7).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(7));
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn send_fails_without_receivers() {
        let (tx, rx) = unbounded();
        drop(rx);
        assert!(tx.send(1).is_err());
    }

    #[test]
    fn recv_timeout_times_out() {
        let (tx, rx) = bounded::<i32>(1);
        assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Err(RecvTimeoutError::Timeout));
        tx.send(9).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Ok(9));
    }

    #[test]
    fn blocking_send_unblocks_on_recv() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        let handle = std::thread::spawn(move || tx.send(2));
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(rx.recv(), Ok(1));
        handle.join().unwrap().unwrap();
        assert_eq!(rx.recv(), Ok(2));
    }

    /// Spins until `ready` holds for the channel state; the tests below use
    /// it to know a thread is parked before they act, instead of sleeping.
    fn wait_until<T>(shared: &Shared<T>, ready: impl Fn(&State<T>) -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !ready(&shared.state.lock().unwrap()) {
            assert!(Instant::now() < deadline, "channel never reached the awaited state");
            std::thread::yield_now();
        }
    }

    /// Joins a thread that must already be on its way out; a thread still
    /// parked after ten seconds fails the test instead of hanging it.
    fn join<T>(handle: std::thread::JoinHandle<T>) -> T {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !handle.is_finished() {
            assert!(Instant::now() < deadline, "thread was never woken");
            std::thread::yield_now();
        }
        handle.join().unwrap()
    }

    #[test]
    fn no_wakeup_is_lost_under_contention() {
        const SENDERS: u64 = 4;
        const PER_SENDER: u64 = 50_000;
        let (tx, rx) = bounded::<u64>(1);
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        for s in 0..SENDERS {
            let tx = tx.clone();
            std::thread::spawn(move || {
                for i in 0..PER_SENDER {
                    tx.send(s * PER_SENDER + i).unwrap();
                }
            });
        }
        drop(tx);
        for _ in 0..4 {
            let rx = rx.clone();
            let done_tx = done_tx.clone();
            std::thread::spawn(move || {
                let (mut count, mut sum) = (0u64, 0u64);
                while let Ok(v) = rx.recv() {
                    count += 1;
                    sum += v;
                }
                done_tx.send((count, sum)).unwrap();
            });
        }
        // A lost wake-up parks a thread for good; fail instead of hanging.
        let (mut count, mut sum) = (0u64, 0u64);
        for _ in 0..4 {
            let (c, s) = done_rx
                .recv_timeout(Duration::from_secs(60))
                .expect("a receiver never finished: lost wake-up");
            count += c;
            sum += s;
        }
        let total = SENDERS * PER_SENDER;
        assert_eq!((count, sum), (total, total * (total - 1) / 2));
        let state = rx.shared.state.lock().unwrap();
        assert_eq!((state.sleeping_receivers.parked, state.sleeping_senders.parked), (0, 0));
    }

    #[test]
    fn expired_recv_timeout_leaves_the_sleeper_count_balanced() {
        let (tx, rx) = bounded::<i32>(1);
        assert_eq!(rx.recv_timeout(Duration::from_millis(5)), Err(RecvTimeoutError::Timeout));
        assert_eq!(rx.shared.state.lock().unwrap().sleeping_receivers.parked, 0);
        // A later blocked `recv` is counted once and woken by one `send`.
        let blocked = std::thread::spawn({
            let rx = rx.clone();
            move || rx.recv()
        });
        wait_until(&rx.shared, |s| s.sleeping_receivers.parked == 1);
        tx.send(3).unwrap();
        assert_eq!(join(blocked), Ok(3));
        assert_eq!(rx.shared.state.lock().unwrap().sleeping_receivers.parked, 0);
    }

    #[test]
    fn blocked_send_is_woken_by_try_recv_and_recv_timeout() {
        let (tx, rx) = bounded(1);
        tx.send(0).unwrap();
        for (value, woken_by_try_recv) in [(1, true), (2, false)] {
            let blocked = std::thread::spawn({
                let tx = tx.clone();
                move || tx.send(value)
            });
            wait_until(&rx.shared, |s| s.sleeping_senders.parked == 1);
            let popped = if woken_by_try_recv {
                rx.try_recv().unwrap()
            } else {
                rx.recv_timeout(Duration::from_secs(10)).unwrap()
            };
            assert_eq!(popped, value - 1);
            join(blocked).unwrap();
        }
        assert_eq!(rx.try_recv(), Ok(2));
        assert_eq!(rx.shared.state.lock().unwrap().sleeping_senders.parked, 0);
    }

    #[test]
    fn disconnect_wakes_every_sleeper() {
        let (tx, rx) = bounded::<i32>(1);
        let receivers: Vec<_> = (0..3)
            .map(|_| {
                let rx = rx.clone();
                std::thread::spawn(move || rx.recv())
            })
            .collect();
        wait_until(&rx.shared, |s| s.sleeping_receivers.parked == 3);
        drop(tx);
        for r in receivers {
            assert_eq!(join(r), Err(RecvError));
        }

        let (tx, rx) = bounded(1);
        tx.send(0).unwrap();
        let senders: Vec<_> = (1..=3)
            .map(|v| {
                let tx = tx.clone();
                std::thread::spawn(move || tx.send(v).is_err())
            })
            .collect();
        wait_until(&tx.shared, |s| s.sleeping_senders.parked == 3);
        drop(rx);
        for s in senders {
            assert!(join(s), "send on a disconnected channel must fail");
        }
    }

    fn acquisitions<T>(shared: &Shared<T>) -> u64 {
        shared.state.lock().unwrap().acquisitions
    }

    /// Emptying a queue of k messages takes the lock once through
    /// `try_iter`, k + 1 times through a `try_recv` loop (the last call
    /// finds it empty), and once when there is nothing to take.
    #[test]
    fn try_iter_empties_the_queue_in_one_lock_acquisition() {
        const K: u64 = 100;
        let (tx, rx) = unbounded();
        let taken_in = |take: &dyn Fn() -> Vec<u64>| {
            (0..K).for_each(|i| tx.send(i).unwrap());
            let before = acquisitions(&rx.shared);
            assert_eq!(take(), (0..K).collect::<Vec<_>>());
            acquisitions(&rx.shared) - before
        };
        assert_eq!(taken_in(&|| rx.try_iter().collect()), 1);
        assert_eq!(taken_in(&|| std::iter::from_fn(|| rx.try_recv().ok()).collect()), K + 1);
        let before = acquisitions(&rx.shared);
        assert_eq!(rx.try_iter().count(), 0);
        assert_eq!(acquisitions(&rx.shared) - before, 1);
    }

    fn notifies<T>(shared: &Shared<T>) -> u64 {
        shared.state.lock().unwrap().notifies
    }

    /// A parked thread is notified once however many operations of the
    /// other side follow before it holds the lock again: the first sends
    /// the wake-up, the rest find it on its way. Each thread here parks for
    /// one operation and then leaves, so the count is exact on any host.
    #[test]
    fn a_sleeper_is_notified_once_whatever_follows_before_it_wakes() {
        const K: u64 = 100;
        let (tx, rx) = unbounded();
        let receiver = std::thread::spawn({
            let rx = rx.clone();
            move || rx.recv()
        });
        wait_until(&rx.shared, |s| s.sleeping_receivers.parked == 1);
        let before = notifies(&rx.shared);
        (0..K).for_each(|i| tx.send(i).unwrap());
        assert_eq!(join(receiver), Ok(0));
        assert_eq!(notifies(&rx.shared) - before, 1);

        // A sender parked on a full queue: by `try_recv`s, and by a
        // `try_iter` that takes the whole queue.
        for by_try_iter in [false, true] {
            let (tx, rx) = bounded(K as usize);
            (0..K).for_each(|i| tx.send(i).unwrap());
            let sender = std::thread::spawn(move || tx.send(K));
            wait_until(&rx.shared, |s| s.sleeping_senders.parked == 1);
            let before = notifies(&rx.shared);
            if by_try_iter {
                assert_eq!(rx.try_iter().count() as u64, K);
            } else {
                (0..K).for_each(|_| assert!(rx.try_recv().is_ok()));
            }
            join(sender).unwrap();
            assert_eq!(notifies(&rx.shared) - before, 1);
            assert_eq!(rx.try_recv(), Ok(K));
        }
    }

    #[test]
    fn a_try_iter_wakes_the_senders_it_made_room_for() {
        const PER_SENDER: u64 = 50;
        let (tx, rx) = bounded(2);
        tx.send(u64::MAX).unwrap();
        tx.send(u64::MAX).unwrap();
        let senders: Vec<_> = (0..3)
            .map(|s| {
                let tx = tx.clone();
                std::thread::spawn(move || {
                    (0..PER_SENDER).for_each(|i| tx.send(s * PER_SENDER + i).unwrap())
                })
            })
            .collect();
        wait_until(&rx.shared, |s| s.sleeping_senders.parked == 3);
        // Nothing but `try_iter` ever frees a slot below: a sender it did
        // not wake would stay parked and the deadline would fail the test.
        let mut got: Vec<u64> = rx.try_iter().collect();
        assert_eq!(got, [u64::MAX; 2]);
        got.clear();
        let deadline = Instant::now() + Duration::from_secs(10);
        while got.len() < 3 * PER_SENDER as usize {
            assert!(Instant::now() < deadline, "a sender was never woken");
            got.extend(rx.try_iter());
            std::thread::yield_now();
        }
        senders.into_iter().for_each(join);
        for s in 0..3 {
            let from_s: Vec<u64> = got.iter().copied().filter(|v| v / PER_SENDER == s).collect();
            assert_eq!(from_s, (s * PER_SENDER..(s + 1) * PER_SENDER).collect::<Vec<_>>());
        }
        assert_eq!(rx.shared.state.lock().unwrap().sleeping_senders.parked, 0);
    }

    #[test]
    fn a_dropped_try_iter_leaves_the_rest_queued_in_order() {
        let (tx, rx) = unbounded();
        (0..5).for_each(|i| tx.send(i).unwrap());
        let mut taking = rx.try_iter();
        assert_eq!(taking.size_hint(), (5, Some(5)));
        assert_eq!((taking.next(), taking.next()), (Some(0), Some(1)));
        assert_eq!(taking.size_hint(), (3, Some(3)));
        drop(taking);
        assert_eq!(rx.len(), 3);
        assert_eq!(rx.try_iter().collect::<Vec<_>>(), [2, 3, 4]);
    }

    #[test]
    fn try_iter_on_a_disconnected_channel_yields_the_queue_then_ends() {
        let (tx, rx) = bounded(4);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        drop(tx);
        assert_eq!(rx.try_iter().collect::<Vec<_>>(), [1, 2]);
        assert_eq!(rx.try_iter().next(), None);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn mpmc_clone_both_sides() {
        let (tx, rx) = unbounded();
        let tx2 = tx.clone();
        let rx2 = rx.clone();
        tx.send(1).unwrap();
        tx2.send(2).unwrap();
        let a = rx.recv().unwrap();
        let b = rx2.recv().unwrap();
        let mut got = [a, b];
        got.sort_unstable();
        assert_eq!(got, [1, 2]);
    }
}
