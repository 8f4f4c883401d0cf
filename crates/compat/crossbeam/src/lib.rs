//! Offline stand-in for the `crossbeam` crate.
//!
//! Three pieces are provided:
//!
//! * [`channel`] — unbounded MPMC channels with the same disconnect
//!   semantics the threaded executor relies on (`recv` fails once every
//!   sender is dropped and the queue is drained; `send` fails once every
//!   receiver is dropped).
//! * [`deque`] — work-stealing deques with the `crossbeam-deque` API
//!   shape (owner pops LIFO, thieves steal FIFO) plus a shared
//!   [`deque::Injector`].
//! * [`pool`] — a work-stealing thread pool with parkable workers and
//!   scoped spawn ([`pool::ThreadPool::scope`]), the engine behind
//!   `pipebd_tensor`'s parallel kernels. (The real crossbeam leaves
//!   pools to `rayon`; the shim grows its own so the workspace stays
//!   offline.)
//!
//! Implementations are `Mutex<VecDeque>` plus `Condvar` — adequate for
//! the executor's coarse-grained messages and for macro-tile-granularity
//! compute tasks, with none of crossbeam's lock-free performance.

pub mod deque;
pub mod pool;

pub mod channel {
    //! Unbounded MPMC channels (`unbounded`, [`Sender`], [`Receiver`]).

    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    struct Shared<T> {
        state: Mutex<State<T>>,
        ready: Condvar,
    }

    /// Error returned by [`Sender::send`] when all receivers are gone;
    /// carries the unsent message like the real crate.
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

    impl<T> std::error::Error for SendError<T> {}

    /// Error returned by [`Receiver::recv`] when the channel is empty and
    /// all senders are gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("receiving on an empty, disconnected channel")
        }
    }

    impl std::error::Error for RecvError {}

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// The timeout elapsed with the channel still empty.
        Timeout,
        /// The channel is empty and every sender has been dropped.
        Disconnected,
    }

    /// The sending half of an unbounded channel. Cloneable; the channel
    /// disconnects for receivers when the last clone is dropped.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// The receiving half of an unbounded channel. Cloneable; clones
    /// compete for messages (MPMC), like the real crossbeam receiver.
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    /// Creates an unbounded MPMC channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
            }),
            ready: Condvar::new(),
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    impl<T> Sender<T> {
        /// Enqueues `msg`, failing if every receiver has been dropped.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            let mut state = self.shared.state.lock().expect("channel poisoned");
            if state.receivers == 0 {
                return Err(SendError(msg));
            }
            state.queue.push_back(msg);
            drop(state);
            self.shared.ready.notify_one();
            Ok(())
        }

        /// Messages sent and not yet received (the real crate's name and
        /// meaning: a snapshot, stale as soon as it is read).
        pub fn len(&self) -> usize {
            self.shared
                .state
                .lock()
                .expect("channel poisoned")
                .queue
                .len()
        }

        /// Whether [`len`](Self::len) reads 0.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.state.lock().expect("channel poisoned").senders += 1;
            Self {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut state = self.shared.state.lock().expect("channel poisoned");
            state.senders -= 1;
            if state.senders == 0 {
                drop(state);
                // Wake blocked receivers so they observe the disconnect.
                self.shared.ready.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Blocks until a message arrives, failing once the channel is
        /// empty and every sender has been dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            self.recv_deadline(None).map_err(|_| RecvError)
        }

        /// [`recv`](Self::recv) that gives up after `timeout`, telling
        /// an elapsed wait from a disconnected channel (same contract as
        /// the real crate).
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            self.recv_deadline(Some(Instant::now() + timeout))
        }

        fn recv_deadline(&self, deadline: Option<Instant>) -> Result<T, RecvTimeoutError> {
            let mut state = self.shared.state.lock().expect("channel poisoned");
            loop {
                if let Some(msg) = state.queue.pop_front() {
                    return Ok(msg);
                }
                if state.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let ready = &self.shared.ready;
                state = match deadline.map(|d| d.saturating_duration_since(Instant::now())) {
                    None => ready.wait(state).expect("channel poisoned"),
                    Some(left) if left.is_zero() => return Err(RecvTimeoutError::Timeout),
                    Some(left) => ready.wait_timeout(state, left).expect("channel poisoned").0,
                };
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared
                .state
                .lock()
                .expect("channel poisoned")
                .receivers += 1;
            Self {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.shared
                .state
                .lock()
                .expect("channel poisoned")
                .receivers -= 1;
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn delivers_in_order() {
            let (tx, rx) = unbounded();
            for i in 0..10 {
                tx.send(i).unwrap();
            }
            for i in 0..10 {
                assert_eq!(rx.recv(), Ok(i));
            }
        }

        #[test]
        fn len_counts_what_is_sent_and_not_yet_received() {
            let (tx, rx) = unbounded();
            assert!(tx.is_empty());
            tx.send(1).unwrap();
            tx.clone().send(2).unwrap();
            assert_eq!(tx.len(), 2);
            rx.recv().unwrap();
            assert_eq!(tx.len(), 1);
            rx.recv().unwrap();
            assert!(tx.is_empty());
        }

        #[test]
        fn recv_fails_after_all_senders_drop() {
            let (tx, rx) = unbounded::<u32>();
            let tx2 = tx.clone();
            tx.send(7).unwrap();
            drop(tx);
            drop(tx2);
            assert_eq!(rx.recv(), Ok(7));
            assert_eq!(rx.recv(), Err(RecvError));
        }

        #[test]
        fn recv_timeout_elapses_on_an_empty_live_channel() {
            let (_tx, rx) = unbounded::<u32>();
            let wait = Duration::from_millis(20);
            let t0 = Instant::now();
            assert_eq!(rx.recv_timeout(wait), Err(RecvTimeoutError::Timeout));
            assert!(t0.elapsed() >= wait);
        }

        #[test]
        fn recv_timeout_returns_early_when_a_send_lands_mid_wait() {
            let (tx, rx) = unbounded::<u32>();
            let (parked_tx, parked_rx) = unbounded::<()>();
            let receiver = std::thread::spawn(move || {
                parked_tx.send(()).unwrap();
                let t0 = Instant::now();
                (rx.recv_timeout(Duration::from_secs(30)), t0.elapsed())
            });
            parked_rx.recv().unwrap();
            tx.send(9).unwrap();
            let (got, waited) = receiver.join().unwrap();
            assert_eq!(got, Ok(9));
            assert!(waited < Duration::from_secs(30), "woke on the send");
        }

        #[test]
        fn recv_timeout_reports_disconnected_once_drained_and_senderless() {
            let (tx, rx) = unbounded::<u32>();
            tx.send(3).unwrap();
            drop(tx);
            let wait = Duration::from_secs(30);
            assert_eq!(rx.recv_timeout(wait), Ok(3));
            assert_eq!(rx.recv_timeout(wait), Err(RecvTimeoutError::Disconnected));
        }

        #[test]
        fn send_fails_after_all_receivers_drop() {
            let (tx, rx) = unbounded::<u32>();
            drop(rx);
            assert!(tx.send(1).is_err());
        }

        #[test]
        fn blocking_recv_wakes_on_send() {
            let (tx, rx) = unbounded::<u32>();
            let handle = std::thread::spawn(move || rx.recv());
            tx.send(42).unwrap();
            assert_eq!(handle.join().unwrap(), Ok(42));
        }
    }
}
