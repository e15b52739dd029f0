//! The bounded admission queue between the reactor and the workers.
//!
//! Admission control is the server's only defence against unbounded
//! fan-in: the reactor *tries* to enqueue every complete request it
//! cuts off a connection and, when the queue is full, immediately
//! answers 503 with a retry hint on that connection — which stays
//! open — instead of letting requests pile up until something times
//! out. Capacity is the knob (`--queue-depth`): it bounds worst-case
//! queueing delay at `depth x slowest compile`.
//!
//! Shutdown is *graceful by construction*: [`Queue::close`] stops new
//! admissions, but [`Queue::pop`] keeps handing out already-admitted
//! items until the queue is drained — only then do workers see `None`
//! and exit. Nothing admitted is ever dropped.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Outcome of an admission attempt.
#[derive(Debug, PartialEq, Eq)]
pub enum Push<T> {
    /// The item was admitted.
    Admitted,
    /// The queue is at capacity; the item comes back to the caller
    /// (which answers 503 and keeps the connection).
    Saturated(T),
    /// The queue is closed; the item comes back to the caller.
    Closed(T),
}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded MPMC queue with explicit saturation and drain-on-close.
pub struct Queue<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
    capacity: usize,
}

impl<T> Queue<T> {
    /// A queue admitting at most `capacity` items (minimum 1).
    pub fn new(capacity: usize) -> Queue<T> {
        Queue {
            state: Mutex::new(State {
                items: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Tries to admit `item` without blocking.
    pub fn try_push(&self, item: T) -> Push<T> {
        let mut state = self.state.lock().expect("queue poisoned");
        if state.closed {
            return Push::Closed(item);
        }
        if state.items.len() >= self.capacity {
            return Push::Saturated(item);
        }
        state.items.push_back(item);
        drop(state);
        self.ready.notify_one();
        Push::Admitted
    }

    /// Blocks until an item is available or the queue is closed *and*
    /// drained; `None` means "no more work, ever" (the worker exits).
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state.lock().expect("queue poisoned");
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.ready.wait(state).expect("queue wait poisoned");
        }
    }

    /// Stops admissions and wakes every waiting worker. Already-queued
    /// items are still handed out by [`Queue::pop`].
    pub fn close(&self) {
        self.state.lock().expect("queue poisoned").closed = true;
        self.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn admits_up_to_capacity_then_saturates() {
        let q = Queue::new(2);
        assert_eq!(q.try_push(1), Push::Admitted);
        assert_eq!(q.try_push(2), Push::Admitted);
        assert_eq!(q.try_push(3), Push::Saturated(3));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.try_push(4), Push::Admitted);
        assert_eq!(q.try_push(5), Push::Saturated(5));
    }

    #[test]
    fn close_drains_queued_items_before_none() {
        let q = Queue::new(4);
        q.try_push(1);
        q.try_push(2);
        q.close();
        assert_eq!(q.try_push(3), Push::Closed(3));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn blocked_workers_wake_on_close() {
        let q = Queue::<u32>::new(1);
        let drained = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    while q.pop().is_some() {
                        drained.fetch_add(1, Ordering::SeqCst);
                    }
                });
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
            q.try_push(7);
            q.close();
        });
        assert_eq!(drained.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn capacity_has_a_floor_of_one() {
        let q = Queue::new(0);
        assert_eq!(q.try_push(1), Push::Admitted);
        assert_eq!(q.try_push(2), Push::Saturated(2));
    }
}
