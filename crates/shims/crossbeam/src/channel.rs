//! MPMC channels with crossbeam-compatible semantics.
//!
//! * Cloneable [`Sender`]s and [`Receiver`]s.
//! * A channel disconnects when either side's population drops to zero;
//!   remaining messages stay receivable after all senders are gone.
//! * Bounded channels block on `send` when full; `try_send` reports
//!   [`TrySendError::Full`] instead.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Error returned by [`Sender::send`] when every receiver is gone; carries
/// the unsent message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// Error returned by [`Sender::try_send`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrySendError<T> {
    /// The bounded channel is at capacity.
    Full(T),
    /// Every receiver is gone.
    Disconnected(T),
}

/// Error returned by [`Receiver::recv`] when the channel is empty and every
/// sender is gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

/// Error returned by [`Receiver::try_recv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// The channel is currently empty.
    Empty,
    /// The channel is empty and every sender is gone.
    Disconnected,
}

/// Error returned by [`Receiver::recv_timeout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// Nothing arrived within the timeout.
    Timeout,
    /// The channel is empty and every sender is gone.
    Disconnected,
}

impl<T> fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sending on a disconnected channel")
    }
}

struct Shared<T> {
    queue: Mutex<VecDeque<T>>,
    cap: Option<usize>,
    senders: AtomicUsize,
    receivers: AtomicUsize,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> Shared<T> {
    fn disconnected_for_send(&self) -> bool {
        self.receivers.load(Ordering::SeqCst) == 0
    }

    fn disconnected_for_recv(&self) -> bool {
        self.senders.load(Ordering::SeqCst) == 0
    }
}

/// The sending half of a channel.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// The receiving half of a channel.
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

impl<T> fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sender").finish_non_exhaustive()
    }
}

impl<T> fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Receiver").finish_non_exhaustive()
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.senders.fetch_add(1, Ordering::SeqCst);
        Sender {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.shared.receivers.fetch_add(1, Ordering::SeqCst);
        Receiver {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        if self.shared.senders.fetch_sub(1, Ordering::SeqCst) == 1 {
            // Last sender gone: wake blocked receivers so they observe the
            // disconnect.
            self.shared.not_empty.notify_all();
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        if self.shared.receivers.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.shared.not_full.notify_all();
        }
    }
}

/// Recovers from a poisoned std lock operation: a sender or receiver that
/// panicked mid-operation must not wedge the channel for every other clone,
/// so poison is swallowed and the queue stays usable.
fn recover<G>(result: Result<G, PoisonError<G>>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}

fn lock<'a, T>(m: &'a Mutex<VecDeque<T>>) -> MutexGuard<'a, VecDeque<T>> {
    recover(m.lock())
}

impl<T> Sender<T> {
    /// Sends a message, blocking while a bounded channel is full.
    ///
    /// # Errors
    ///
    /// Returns [`SendError`] when every receiver is gone.
    pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
        let shared = &*self.shared;
        let mut queue = lock(&shared.queue);
        loop {
            if shared.disconnected_for_send() {
                return Err(SendError(msg));
            }
            match shared.cap {
                Some(cap) if queue.len() >= cap => {
                    let (q, timeout) = recover(
                        shared
                            .not_full
                            .wait_timeout(queue, Duration::from_millis(100)),
                    );
                    queue = q;
                    let _ = timeout;
                }
                _ => {
                    queue.push_back(msg);
                    drop(queue);
                    shared.not_empty.notify_one();
                    return Ok(());
                }
            }
        }
    }

    /// Sends without blocking.
    ///
    /// # Errors
    ///
    /// [`TrySendError::Full`] when a bounded channel is at capacity,
    /// [`TrySendError::Disconnected`] when every receiver is gone.
    pub fn try_send(&self, msg: T) -> Result<(), TrySendError<T>> {
        let shared = &*self.shared;
        let mut queue = lock(&shared.queue);
        if shared.disconnected_for_send() {
            return Err(TrySendError::Disconnected(msg));
        }
        if let Some(cap) = shared.cap {
            if queue.len() >= cap {
                return Err(TrySendError::Full(msg));
            }
        }
        queue.push_back(msg);
        drop(queue);
        shared.not_empty.notify_one();
        Ok(())
    }

    /// Number of messages currently queued.
    pub fn len(&self) -> usize {
        lock(&self.shared.queue).len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Receiver<T> {
    /// Receives a message, blocking until one arrives.
    ///
    /// # Errors
    ///
    /// Returns [`RecvError`] when the channel is empty and every sender is
    /// gone.
    pub fn recv(&self) -> Result<T, RecvError> {
        let shared = &*self.shared;
        let mut queue = lock(&shared.queue);
        loop {
            if let Some(msg) = queue.pop_front() {
                drop(queue);
                shared.not_full.notify_one();
                return Ok(msg);
            }
            if shared.disconnected_for_recv() {
                return Err(RecvError);
            }
            queue = recover(
                shared
                    .not_empty
                    .wait_timeout(queue, Duration::from_millis(100)),
            )
            .0;
        }
    }

    /// Receives with a deadline.
    ///
    /// # Errors
    ///
    /// [`RecvTimeoutError::Timeout`] when nothing arrives in time,
    /// [`RecvTimeoutError::Disconnected`] when the channel is drained and
    /// every sender is gone.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let shared = &*self.shared;
        let deadline = Instant::now() + timeout;
        let mut queue = lock(&shared.queue);
        loop {
            if let Some(msg) = queue.pop_front() {
                drop(queue);
                shared.not_full.notify_one();
                return Ok(msg);
            }
            if shared.disconnected_for_recv() {
                return Err(RecvTimeoutError::Disconnected);
            }
            let now = Instant::now();
            let Some(remaining) = deadline
                .checked_duration_since(now)
                .filter(|d| !d.is_zero())
            else {
                return Err(RecvTimeoutError::Timeout);
            };
            queue = recover(shared.not_empty.wait_timeout(queue, remaining)).0;
        }
    }

    /// Receives without blocking.
    ///
    /// # Errors
    ///
    /// [`TryRecvError::Empty`] or [`TryRecvError::Disconnected`].
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let shared = &*self.shared;
        let mut queue = lock(&shared.queue);
        if let Some(msg) = queue.pop_front() {
            drop(queue);
            shared.not_full.notify_one();
            return Ok(msg);
        }
        if shared.disconnected_for_recv() {
            Err(TryRecvError::Disconnected)
        } else {
            Err(TryRecvError::Empty)
        }
    }

    /// Number of messages currently queued.
    pub fn len(&self) -> usize {
        lock(&self.shared.queue).len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Blocking iterator over received messages; ends on disconnect.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter { receiver: self }
    }
}

/// Blocking iterator returned by [`Receiver::iter`].
pub struct Iter<'a, T> {
    receiver: &'a Receiver<T>,
}

impl<T> Iterator for Iter<'_, T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        self.receiver.recv().ok()
    }
}

impl<'a, T> IntoIterator for &'a Receiver<T> {
    type Item = T;
    type IntoIter = Iter<'a, T>;

    fn into_iter(self) -> Iter<'a, T> {
        self.iter()
    }
}

fn with_capacity<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        queue: Mutex::new(VecDeque::new()),
        cap,
        senders: AtomicUsize::new(1),
        receivers: AtomicUsize::new(1),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

/// Creates an unbounded channel.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    with_capacity(None)
}

/// Creates a bounded channel holding at most `cap` messages. A capacity of
/// zero is treated as one (this shim has no rendezvous mode; nothing in the
/// workspace uses one).
pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    with_capacity(Some(cap.max(1)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn send_recv_roundtrip() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.recv().unwrap(), 1);
        assert_eq!(rx.recv().unwrap(), 2);
    }

    #[test]
    fn disconnect_semantics() {
        let (tx, rx) = unbounded::<u8>();
        tx.send(1).unwrap();
        drop(tx);
        // Queued message still receivable after the sender is gone.
        assert_eq!(rx.recv().unwrap(), 1);
        assert_eq!(rx.recv(), Err(RecvError));

        let (tx, rx) = unbounded::<u8>();
        drop(rx);
        assert_eq!(tx.send(9), Err(SendError(9)));
        assert!(matches!(tx.try_send(9), Err(TrySendError::Disconnected(9))));
    }

    #[test]
    fn bounded_try_send_full() {
        let (tx, rx) = bounded(2);
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        assert!(matches!(tx.try_send(3), Err(TrySendError::Full(3))));
        assert_eq!(rx.recv().unwrap(), 1);
        tx.try_send(3).unwrap();
    }

    #[test]
    fn bounded_send_blocks_until_space() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        let t = thread::spawn(move || {
            tx.send(2).unwrap(); // blocks until the receiver drains one
        });
        thread::sleep(Duration::from_millis(30));
        assert_eq!(rx.recv().unwrap(), 1);
        assert_eq!(rx.recv().unwrap(), 2);
        t.join().unwrap();
    }

    #[test]
    fn recv_timeout_times_out_then_delivers() {
        let (tx, rx) = unbounded();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(20)),
            Err(RecvTimeoutError::Timeout)
        );
        tx.send(5).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(20)).unwrap(), 5);
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(20)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn mpmc_fanout() {
        let (tx, rx) = unbounded::<u64>();
        let mut producers = Vec::new();
        for t in 0..4u64 {
            let tx = tx.clone();
            producers.push(thread::spawn(move || {
                for i in 0..100 {
                    tx.send(t * 1000 + i).unwrap();
                }
            }));
        }
        drop(tx);
        let mut consumers = Vec::new();
        for _ in 0..3 {
            let rx = rx.clone();
            consumers.push(thread::spawn(move || rx.iter().count()));
        }
        drop(rx);
        for p in producers {
            p.join().unwrap();
        }
        let total: usize = consumers.into_iter().map(|c| c.join().unwrap()).sum();
        assert_eq!(total, 400);
    }
}
