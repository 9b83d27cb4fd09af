//! Bounded MPSC submission queues.
//!
//! One queue feeds one core loop with the work that crosses cores (in-process
//! clients, 2PC decides); socket requests never enter it. Producers never
//! block: a full queue is a `Busy` rejection (the service's backpressure
//! boundary, pushed all the way back to the client). The consumer dequeues in
//! batches — one lock acquisition amortised over up to `max` procedures. A
//! core loop parks in `epoll_wait` and is woken through its `mio::Waker`, so
//! it only ever calls [`SubmissionQueue::try_pop_batch`]; the blocking
//! [`SubmissionQueue::pop_batch`] is for consumers without an event loop.
//!
//! Built on `std::sync` primitives rather than the in-tree `parking_lot`
//! shim because the blocking consumer needs `Condvar::wait_timeout`.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// Why a push was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PushError {
    /// The queue is at its depth cap.
    Full,
    /// The queue was closed; no further items are accepted.
    Closed,
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded multi-producer single-consumer queue with batched dequeue.
pub struct SubmissionQueue<T> {
    inner: Mutex<Inner<T>>,
    readable: Condvar,
    cap: usize,
}

impl<T> SubmissionQueue<T> {
    /// Creates a queue holding at most `cap` items (`cap >= 1`).
    pub fn new(cap: usize) -> Self {
        SubmissionQueue {
            inner: Mutex::new(Inner { items: VecDeque::with_capacity(cap.min(1024)), closed: false }),
            readable: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// The depth cap this queue was created with.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Current number of queued items.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("queue lock poisoned").items.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueues `item`, failing fast when the queue is full (backpressure)
    /// or closed (shutdown).
    pub fn try_push(&self, item: T) -> Result<(), PushError> {
        let mut inner = self.inner.lock().expect("queue lock poisoned");
        if inner.closed {
            return Err(PushError::Closed);
        }
        if inner.items.len() >= self.cap {
            return Err(PushError::Full);
        }
        inner.items.push_back(item);
        drop(inner);
        self.readable.notify_one();
        Ok(())
    }

    /// Dequeues up to `max` items into `out`, waiting up to `timeout` when
    /// the queue is empty. Returns `false` once the queue is closed *and*
    /// drained — the consumer's signal to stop. `out` is cleared first.
    pub fn pop_batch(&self, max: usize, timeout: Duration, out: &mut Vec<T>) -> bool {
        out.clear();
        let mut inner = self.inner.lock().expect("queue lock poisoned");
        if inner.items.is_empty() && !inner.closed {
            let (guard, _timed_out) = self
                .readable
                .wait_timeout(inner, timeout)
                .expect("queue lock poisoned");
            inner = guard;
        }
        let take = inner.items.len().min(max);
        out.extend(inner.items.drain(..take));
        !(inner.closed && inner.items.is_empty() && out.is_empty())
    }

    /// Takes what is queued right now, up to `max` items, without waiting.
    /// Returns `false` once the queue is closed and this call left it empty:
    /// nothing can be queued again, so `out` holds the last items. (A
    /// consumer woken by notifications, not by a timeout, would otherwise
    /// never learn that the queue it just emptied was closed.)
    pub fn try_pop_batch(&self, max: usize, out: &mut Vec<T>) -> bool {
        out.clear();
        let mut inner = self.inner.lock().expect("queue lock poisoned");
        let take = inner.items.len().min(max);
        out.extend(inner.items.drain(..take));
        !(inner.closed && inner.items.is_empty())
    }

    /// Closes the queue: pending items stay dequeueable, new pushes fail with
    /// [`PushError::Closed`], and blocked consumers wake immediately.
    pub fn close(&self) {
        let mut inner = self.inner.lock().expect("queue lock poisoned");
        inner.closed = true;
        drop(inner);
        self.readable.notify_all();
    }

    /// True once [`SubmissionQueue::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.inner.lock().expect("queue lock poisoned").closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn push_pop_fifo_order() {
        let q = SubmissionQueue::new(8);
        for i in 0..5 {
            q.try_push(i).unwrap();
        }
        assert_eq!(q.len(), 5);
        let mut out = Vec::new();
        assert!(q.pop_batch(3, Duration::from_millis(1), &mut out));
        assert_eq!(out, vec![0, 1, 2]);
        assert!(q.pop_batch(10, Duration::from_millis(1), &mut out));
        assert_eq!(out, vec![3, 4]);
        assert!(q.is_empty());
    }

    #[test]
    fn try_pop_batch_never_waits_and_reports_close() {
        let q = SubmissionQueue::new(4);
        let mut out = vec![99];
        let start = std::time::Instant::now();
        assert!(q.try_pop_batch(4, &mut out), "empty and open: keep going");
        assert!(out.is_empty(), "out is cleared first");
        assert!(start.elapsed() < Duration::from_millis(100));
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert!(q.try_pop_batch(1, &mut out));
        assert_eq!(out, vec![1]);
        q.try_push(3).unwrap();
        q.close();
        assert!(q.try_pop_batch(1, &mut out), "closed but not drained");
        assert_eq!(out, vec![2]);
        assert!(!q.try_pop_batch(4, &mut out), "closed and now empty: stop");
        assert_eq!(out, vec![3], "the last items come with the stop signal");
        assert!(!q.try_pop_batch(4, &mut out));
        assert!(out.is_empty());
    }

    #[test]
    fn full_queue_rejects_with_busy() {
        let q = SubmissionQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.try_push(3), Err(PushError::Full));
        let mut out = Vec::new();
        q.pop_batch(1, Duration::from_millis(1), &mut out);
        assert_eq!(out, vec![1]);
        q.try_push(3).unwrap();
    }

    #[test]
    fn close_drains_then_signals_stop() {
        let q = SubmissionQueue::new(4);
        q.try_push(7).unwrap();
        q.close();
        assert_eq!(q.try_push(8), Err(PushError::Closed));
        let mut out = Vec::new();
        // Pending item still comes out; the queue only reports "stop" once
        // it is both closed and empty.
        assert!(q.pop_batch(4, Duration::from_millis(1), &mut out));
        assert_eq!(out, vec![7]);
        assert!(!q.pop_batch(4, Duration::from_millis(1), &mut out));
        assert!(out.is_empty());
    }

    #[test]
    fn empty_open_queue_times_out_and_stays_open() {
        let q: SubmissionQueue<u32> = SubmissionQueue::new(4);
        let mut out = Vec::new();
        let start = std::time::Instant::now();
        assert!(q.pop_batch(4, Duration::from_millis(5), &mut out));
        assert!(out.is_empty());
        assert!(start.elapsed() >= Duration::from_millis(4));
    }

    #[test]
    fn close_wakes_blocked_consumer() {
        let q: Arc<SubmissionQueue<u32>> = Arc::new(SubmissionQueue::new(4));
        let q2 = Arc::clone(&q);
        let t = std::thread::spawn(move || {
            let mut out = Vec::new();
            q2.pop_batch(4, Duration::from_secs(10), &mut out)
        });
        std::thread::sleep(Duration::from_millis(10));
        q.close();
        assert!(!t.join().unwrap(), "closed empty queue reports stop");
    }

    #[test]
    fn cross_thread_producers() {
        let q: Arc<SubmissionQueue<usize>> = Arc::new(SubmissionQueue::new(1024));
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..100 {
                        while q.try_push(p * 100 + i) == Err(PushError::Full) {
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        let mut got = Vec::new();
        let mut out = Vec::new();
        while got.len() < 400 {
            q.pop_batch(64, Duration::from_millis(5), &mut out);
            got.append(&mut out);
        }
        for p in producers {
            p.join().unwrap();
        }
        got.sort_unstable();
        let expected: Vec<usize> = (0..4).flat_map(|p| (0..100).map(move |i| p * 100 + i)).collect();
        assert_eq!(got, expected);
    }
}
