//! Asynchronous FIFO queues connecting simulation processes.
//!
//! These model the hardware and software queues of the SHRIMP system (DMA
//! request queues, packet FIFOs, notification queues). Senders are synchronous
//! for unbounded queues; receivers await.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

/// Parked receiver wakers. Nearly every queue in the simulated system has
/// exactly one receiver, so the single-waiter case stores the `Waker` inline
/// with no heap allocation; only genuinely contended queues promote to a
/// `Vec`, whose allocation is then kept and reused across wake cycles.
/// Wake order is FIFO (registration order) in all cases.
///
/// A lone waiter's waker is woken by reference and kept as `Idle`, so the
/// same receiver parking again (the steady state of every engine loop)
/// reuses it instead of cloning — no reference-count traffic per message.
///
/// [`crate::sync`]'s `Event`, `Gate` and `Semaphore` keep their waiters
/// here too.
pub(crate) enum Waiters {
    Empty,
    /// No waiter; the last lone waiter's waker, kept for reuse.
    Idle(Waker),
    One(Waker),
    Many(Vec<Waker>),
}

impl Waiters {
    pub(crate) fn push(&mut self, w: &Waker) {
        match self {
            Waiters::Empty => *self = Waiters::One(w.clone()),
            Waiters::Idle(_) => {
                let Waiters::Idle(spare) = std::mem::replace(self, Waiters::Empty) else {
                    unreachable!()
                };
                *self = Waiters::One(if spare.will_wake(w) { spare } else { w.clone() });
            }
            Waiters::One(_) => {
                let Waiters::One(first) = std::mem::replace(self, Waiters::Empty) else {
                    unreachable!()
                };
                *self = Waiters::Many(vec![first, w.clone()]);
            }
            Waiters::Many(v) => v.push(w.clone()),
        }
    }

    pub(crate) fn wake_all(&mut self) {
        match self {
            Waiters::Empty | Waiters::Idle(_) => {}
            Waiters::One(_) => {
                let Waiters::One(w) = std::mem::replace(self, Waiters::Empty) else {
                    unreachable!()
                };
                w.wake_by_ref();
                *self = Waiters::Idle(w);
            }
            // Drain in registration order; the Vec's capacity is retained so
            // a contended queue allocates once, not per wake cycle.
            Waiters::Many(v) => {
                for w in v.drain(..) {
                    w.wake();
                }
            }
        }
    }
}

struct Inner<T> {
    items: VecDeque<T>,
    recv_waiters: Waiters,
    closed: bool,
}

/// An unbounded FIFO channel between simulation processes.
///
/// Cloning shares the same underlying queue. This type offers both send and
/// receive; [`QueueSender`]/[`QueueReceiver`] are directional views.
pub struct Queue<T> {
    inner: Rc<RefCell<Inner<T>>>,
}

impl<T> Clone for Queue<T> {
    fn clone(&self) -> Self {
        Queue {
            inner: self.inner.clone(),
        }
    }
}

impl<T> std::fmt::Debug for Queue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Queue")
            .field("len", &self.len())
            .field("closed", &self.inner.borrow().closed)
            .finish()
    }
}

impl<T> Default for Queue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Queue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Queue {
            inner: Rc::new(RefCell::new(Inner {
                items: VecDeque::new(),
                recv_waiters: Waiters::Empty,
                closed: false,
            })),
        }
    }

    /// Appends an item and wakes any waiting receiver.
    ///
    /// # Panics
    ///
    /// Panics if the queue is closed.
    pub fn send(&self, item: T) {
        let mut inner = self.inner.borrow_mut();
        assert!(!inner.closed, "send on closed queue");
        inner.items.push_back(item);
        inner.recv_waiters.wake_all();
    }

    /// Closes the queue: pending items may still be received, after which
    /// `recv` yields `None`.
    pub fn close(&self) {
        let mut inner = self.inner.borrow_mut();
        inner.closed = true;
        inner.recv_waiters.wake_all();
    }

    /// Receives the next item, waiting if the queue is empty. Yields `None`
    /// once the queue is closed and drained.
    pub fn recv(&self) -> Recv<T> {
        Recv {
            inner: self.inner.clone(),
        }
    }

    /// Removes the next item if one is present, without waiting.
    pub fn try_recv(&self) -> Option<T> {
        self.inner.borrow_mut().items.pop_front()
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.inner.borrow().items.len()
    }

    /// `true` when no items are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Future returned by [`Queue::recv`].
pub struct Recv<T> {
    inner: Rc<RefCell<Inner<T>>>,
}

impl<T> Future for Recv<T> {
    type Output = Option<T>;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Option<T>> {
        let mut inner = self.inner.borrow_mut();
        if let Some(item) = inner.items.pop_front() {
            return Poll::Ready(Some(item));
        }
        if inner.closed {
            return Poll::Ready(None);
        }
        inner.recv_waiters.push(cx.waker());
        Poll::Pending
    }
}

/// Sending half of a queue created by [`unbounded`].
pub struct QueueSender<T>(Queue<T>);

impl<T> Clone for QueueSender<T> {
    fn clone(&self) -> Self {
        QueueSender(self.0.clone())
    }
}

impl<T> std::fmt::Debug for QueueSender<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "QueueSender({:?})", self.0)
    }
}

impl<T> QueueSender<T> {
    /// Appends an item; see [`Queue::send`].
    pub fn send(&self, item: T) {
        self.0.send(item)
    }
    /// Closes the queue; see [`Queue::close`].
    pub fn close(&self) {
        self.0.close()
    }
}

/// Receiving half of a queue created by [`unbounded`].
pub struct QueueReceiver<T>(Queue<T>);

impl<T> Clone for QueueReceiver<T> {
    fn clone(&self) -> Self {
        QueueReceiver(self.0.clone())
    }
}

impl<T> std::fmt::Debug for QueueReceiver<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "QueueReceiver({:?})", self.0)
    }
}

impl<T> QueueReceiver<T> {
    /// Receives the next item; see [`Queue::recv`].
    pub fn recv(&self) -> Recv<T> {
        self.0.recv()
    }
    /// Non-blocking receive; see [`Queue::try_recv`].
    pub fn try_recv(&self) -> Option<T> {
        self.0.try_recv()
    }
    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.0.len()
    }
    /// `true` when no items are queued.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// Creates a connected sender/receiver pair over a fresh unbounded queue.
pub fn unbounded<T>() -> (QueueSender<T>, QueueReceiver<T>) {
    let q = Queue::new();
    (QueueSender(q.clone()), QueueReceiver(q))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sim;

    #[test]
    fn fifo_order_preserved() {
        let sim = Sim::new();
        let (tx, rx) = unbounded();
        for i in 0..10 {
            tx.send(i);
        }
        let h = sim.spawn(async move {
            let mut got = Vec::new();
            for _ in 0..10 {
                got.push(rx.recv().await.unwrap());
            }
            got
        });
        sim.run_to_completion();
        assert_eq!(h.try_take(), Some((0..10).collect()));
    }

    #[test]
    fn recv_waits_for_send() {
        let sim = Sim::new();
        let (tx, rx) = unbounded();
        let s = sim.clone();
        sim.spawn(async move {
            s.sleep(crate::time::us(2)).await;
            tx.send(5u8);
        });
        let h = sim.spawn(async move { rx.recv().await });
        let t = sim.run_to_completion();
        assert_eq!(t, crate::time::us(2));
        assert_eq!(h.try_take(), Some(Some(5)));
    }

    #[test]
    fn close_drains_then_none() {
        let sim = Sim::new();
        let (tx, rx) = unbounded();
        tx.send(1u8);
        tx.close();
        let h = sim.spawn(async move {
            let a = rx.recv().await;
            let b = rx.recv().await;
            (a, b)
        });
        sim.run_to_completion();
        assert_eq!(h.try_take(), Some((Some(1), None)));
    }

    #[test]
    fn try_recv_nonblocking() {
        let q: Queue<u8> = Queue::new();
        assert_eq!(q.try_recv(), None);
        q.send(9);
        assert_eq!(q.len(), 1);
        assert_eq!(q.try_recv(), Some(9));
        assert!(q.is_empty());
    }

    #[test]
    fn two_receivers_compete_deterministically() {
        let sim = Sim::new();
        let (tx, rx) = unbounded();
        let rx2 = rx.clone();
        let h1 = sim.spawn(async move { rx.recv().await });
        let h2 = sim.spawn(async move { rx2.recv().await });
        sim.schedule(crate::time::us(1), move || {
            tx.send(1u8);
            tx.send(2u8);
        });
        sim.run();
        // First-spawned waiter wins the first item.
        assert_eq!(h1.try_take(), Some(Some(1)));
        assert_eq!(h2.try_take(), Some(Some(2)));
    }
}
