//! Synchronization primitives for simulation processes.
//!
//! * [`Event`] — one-shot flag; waiters block until it is set.
//! * [`Gate`] — reusable notification; waiters block until the next notify.
//! * [`Semaphore`] — counted permits with FIFO wakeup.
//! * [`Resource`] — a device that serves requests one at a time for a known
//!   duration (memory buses, network links, DMA engines); models occupancy
//!   and records total busy time for utilization reports.

use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use crate::executor::Sim;
use crate::queue::Waiters;
use crate::time::Time;

// ---------------------------------------------------------------------------
// Event
// ---------------------------------------------------------------------------

struct EventInner {
    set: bool,
    waiters: Waiters,
}

/// A one-shot event: once [`Event::set`] is called, all current and future
/// waiters proceed immediately.
#[derive(Clone)]
pub struct Event {
    inner: Rc<RefCell<EventInner>>,
}

impl Default for Event {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Event {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Event")
            .field("set", &self.inner.borrow().set)
            .finish()
    }
}

impl Event {
    /// Creates an unset event.
    pub fn new() -> Self {
        Event {
            inner: Rc::new(RefCell::new(EventInner {
                set: false,
                waiters: Waiters::Empty,
            })),
        }
    }

    /// Sets the event, waking all waiters. Idempotent.
    pub fn set(&self) {
        let mut inner = self.inner.borrow_mut();
        inner.set = true;
        inner.waiters.wake_all();
    }

    /// `true` once [`Event::set`] has been called.
    pub fn is_set(&self) -> bool {
        self.inner.borrow().set
    }

    /// Waits until the event is set.
    pub fn wait(&self) -> EventWait {
        EventWait {
            inner: self.inner.clone(),
        }
    }
}

/// Future returned by [`Event::wait`].
pub struct EventWait {
    inner: Rc<RefCell<EventInner>>,
}

impl Future for EventWait {
    type Output = ();
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let mut inner = self.inner.borrow_mut();
        if inner.set {
            Poll::Ready(())
        } else {
            inner.waiters.push(cx.waker());
            Poll::Pending
        }
    }
}

// ---------------------------------------------------------------------------
// Gate
// ---------------------------------------------------------------------------

struct GateInner {
    epoch: u64,
    waiters: Waiters,
}

/// A reusable notification: [`Gate::wait`] blocks until the *next*
/// [`Gate::notify`] after the wait began.
///
/// Used for "something changed, re-check your condition" patterns — e.g. a
/// receive buffer page was written by incoming DMA and pollers should re-read
/// their flag words.
#[derive(Clone)]
pub struct Gate {
    inner: Rc<RefCell<GateInner>>,
}

impl Default for Gate {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Gate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gate")
            .field("epoch", &self.inner.borrow().epoch)
            .finish()
    }
}

impl Gate {
    /// Creates a gate.
    pub fn new() -> Self {
        Gate {
            inner: Rc::new(RefCell::new(GateInner {
                epoch: 0,
                waiters: Waiters::Empty,
            })),
        }
    }

    /// Wakes every process currently blocked in [`Gate::wait`].
    pub fn notify(&self) {
        let mut inner = self.inner.borrow_mut();
        inner.epoch += 1;
        inner.waiters.wake_all();
    }

    /// Waits for the next [`Gate::notify`].
    pub fn wait(&self) -> GateWait {
        GateWait {
            inner: self.inner.clone(),
            epoch: self.inner.borrow().epoch,
        }
    }
}

/// Future returned by [`Gate::wait`].
pub struct GateWait {
    inner: Rc<RefCell<GateInner>>,
    epoch: u64,
}

impl Future for GateWait {
    type Output = ();
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let mut inner = self.inner.borrow_mut();
        if inner.epoch != self.epoch {
            Poll::Ready(())
        } else {
            inner.waiters.push(cx.waker());
            Poll::Pending
        }
    }
}

// ---------------------------------------------------------------------------
// Semaphore
// ---------------------------------------------------------------------------

struct SemInner {
    permits: usize,
    waiters: Waiters,
}

/// A counted semaphore with FIFO-ish wakeup (all waiters re-check on release;
/// poll order is deterministic).
#[derive(Clone)]
pub struct Semaphore {
    inner: Rc<RefCell<SemInner>>,
}

impl std::fmt::Debug for Semaphore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Semaphore")
            .field("permits", &self.inner.borrow().permits)
            .finish()
    }
}

impl Semaphore {
    /// Creates a semaphore holding `permits` permits.
    pub fn new(permits: usize) -> Self {
        Semaphore {
            inner: Rc::new(RefCell::new(SemInner {
                permits,
                waiters: Waiters::Empty,
            })),
        }
    }

    /// Acquires one permit, waiting if none is available.
    pub fn acquire(&self) -> SemAcquire {
        SemAcquire {
            inner: self.inner.clone(),
        }
    }

    /// Returns one permit, waking waiters.
    pub fn release(&self) {
        let mut inner = self.inner.borrow_mut();
        inner.permits += 1;
        inner.waiters.wake_all();
    }

    /// Currently available permits.
    pub fn permits(&self) -> usize {
        self.inner.borrow().permits
    }
}

/// Future returned by [`Semaphore::acquire`].
pub struct SemAcquire {
    inner: Rc<RefCell<SemInner>>,
}

impl Future for SemAcquire {
    type Output = ();
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let mut inner = self.inner.borrow_mut();
        if inner.permits > 0 {
            inner.permits -= 1;
            Poll::Ready(())
        } else {
            inner.waiters.push(cx.waker());
            Poll::Pending
        }
    }
}

// ---------------------------------------------------------------------------
// Resource
// ---------------------------------------------------------------------------

struct ResInner {
    busy_until: Time,
    total_busy: Time,
    reservations: u64,
}

/// A serially reusable device with known service times.
///
/// [`Resource::reserve`] books the next free interval and returns its
/// `(start, end)`; [`Resource::use_for`] additionally sleeps until the
/// interval completes. Requests are served in reservation order, which (in a
/// deterministic simulator) is arrival order — this models FIFO arbitration
/// such as the SHRIMP memory bus, which never cycle-shares between masters.
#[derive(Clone)]
pub struct Resource {
    inner: Rc<RefCell<ResInner>>,
}

impl Default for Resource {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Resource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("Resource")
            .field("busy_until", &inner.busy_until)
            .field("total_busy", &inner.total_busy)
            .finish()
    }
}

impl Resource {
    /// Creates an idle resource.
    pub fn new() -> Self {
        Resource {
            inner: Rc::new(RefCell::new(ResInner {
                busy_until: 0,
                total_busy: 0,
                reservations: 0,
            })),
        }
    }

    /// Books the next free interval of length `duration` starting no earlier
    /// than now. Returns `(start, end)` of the booked interval.
    pub fn reserve(&self, sim: &Sim, duration: Time) -> (Time, Time) {
        let mut inner = self.inner.borrow_mut();
        let start = inner.busy_until.max(sim.now());
        inner.busy_until = start + duration;
        inner.total_busy += duration;
        inner.reservations += 1;
        (start, inner.busy_until)
    }

    /// Books the resource for `duration` and waits until the booked interval
    /// ends. Returns the interval `(start, end)`.
    pub async fn use_for(&self, sim: &Sim, duration: Time) -> (Time, Time) {
        let (start, end) = self.reserve(sim, duration);
        sim.sleep_until(end).await;
        (start, end)
    }

    /// Time at which the most recently booked interval ends.
    pub fn busy_until(&self) -> Time {
        self.inner.borrow().busy_until
    }

    /// Sum of all booked service time (for utilization reporting).
    pub fn total_busy(&self) -> Time {
        self.inner.borrow().total_busy
    }

    /// Number of reservations made.
    pub fn reservations(&self) -> u64 {
        self.inner.borrow().reservations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::us;
    use crate::Sim;

    #[test]
    fn event_wakes_all_waiters() {
        let sim = Sim::new();
        let ev = Event::new();
        let mut handles = Vec::new();
        for _ in 0..3 {
            let ev = ev.clone();
            handles.push(sim.spawn(async move {
                ev.wait().await;
            }));
        }
        let ev2 = ev.clone();
        sim.schedule(us(1), move || ev2.set());
        assert_eq!(sim.run_to_completion(), us(1));
        assert!(ev.is_set());
    }

    #[test]
    fn event_already_set_does_not_block() {
        let sim = Sim::new();
        let ev = Event::new();
        ev.set();
        sim.spawn(async move { ev.wait().await });
        assert_eq!(sim.run_to_completion(), 0);
    }

    #[test]
    fn gate_only_wakes_waiters_present_at_notify() {
        let sim = Sim::new();
        let gate = Gate::new();
        let g = gate.clone();
        let s = sim.clone();
        let h = sim.spawn(async move {
            g.wait().await; // released by first notify
            let t1 = s.now();
            g.wait().await; // released by second notify
            (t1, s.now())
        });
        let g1 = gate.clone();
        sim.schedule(us(1), move || g1.notify());
        let g2 = gate.clone();
        sim.schedule(us(5), move || g2.notify());
        sim.run_to_completion();
        assert_eq!(h.try_take(), Some((us(1), us(5))));
    }

    #[test]
    fn semaphore_limits_concurrency() {
        let sim = Sim::new();
        let sem = Semaphore::new(2);
        let active = Rc::new(RefCell::new((0u32, 0u32))); // (current, max)
        let mut handles = Vec::new();
        for _ in 0..5 {
            let sem = sem.clone();
            let active = active.clone();
            let s = sim.clone();
            handles.push(sim.spawn(async move {
                sem.acquire().await;
                {
                    let mut a = active.borrow_mut();
                    a.0 += 1;
                    a.1 = a.1.max(a.0);
                }
                s.sleep(us(1)).await;
                active.borrow_mut().0 -= 1;
                sem.release();
            }));
        }
        sim.run_to_completion();
        assert_eq!(active.borrow().1, 2);
        assert_eq!(sem.permits(), 2);
    }

    #[test]
    fn resource_serializes_back_to_back() {
        let sim = Sim::new();
        let bus = Resource::new();
        let (s1, e1) = bus.reserve(&sim, us(3));
        let (s2, e2) = bus.reserve(&sim, us(2));
        assert_eq!((s1, e1), (0, us(3)));
        assert_eq!((s2, e2), (us(3), us(5)));
        assert_eq!(bus.total_busy(), us(5));
        assert_eq!(bus.reservations(), 2);
    }

    #[test]
    fn resource_use_for_sleeps_to_interval_end() {
        let sim = Sim::new();
        let bus = Resource::new();
        let b1 = bus.clone();
        let s1 = sim.clone();
        let h1 = sim.spawn(async move { b1.use_for(&s1, us(4)).await });
        let b2 = bus.clone();
        let s2 = sim.clone();
        let h2 = sim.spawn(async move { b2.use_for(&s2, us(1)).await });
        let t = sim.run_to_completion();
        assert_eq!(t, us(5));
        assert_eq!(h1.try_take(), Some((0, us(4))));
        assert_eq!(h2.try_take(), Some((us(4), us(5))));
    }
}
