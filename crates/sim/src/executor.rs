//! The simulation executor: processes, timers, and the deterministic run loop.
//!
//! Simulation *processes* are plain `async` blocks spawned with
//! [`Sim::spawn`]. The executor is strictly single-threaded; determinism comes
//! from two rules:
//!
//! 1. Woken processes are polled in FIFO wake order.
//! 2. When no process is runnable, the earliest timer fires; ties break on a
//!    monotonically increasing sequence number assigned at scheduling time.
//!
//! # Hot path
//!
//! Timers live in an indexed hierarchical [timer wheel](crate::wheel) and
//! tasks in a slab with an intrusive free list, so steady-state scheduling
//! performs no heap allocation: timer nodes and task slots are recycled, each
//! task's [`Waker`] is created once at spawn and lent to every poll, and
//! the wake queue is a plain `VecDeque` guarded by a run-time owner-thread
//! check instead of a `Mutex` (the simulator is single-threaded; a waker that
//! crosses threads panics rather than corrupting the queue).
//!
//! A [`Sleep`] polled with its own task's waker — the common case — stores
//! that task's id in the timer instead of a clone of the waker, and the
//! fire polls that task next: no reference-count traffic, no owner-thread
//! check and no trip through the wake queue per sleep. A waker from
//! anywhere else (a combinator's own, say) is stored and woken as before.

use std::cell::{Cell, RefCell, UnsafeCell};
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::ptr::NonNull;
use std::rc::{Rc, Weak};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};

use crate::metrics::MetricsRegistry;
use crate::time::Time;
use crate::trace::TraceSink;
use crate::wheel::{TimerId, TimerWheel};

type BoxFuture = Pin<Box<dyn Future<Output = ()>>>;

/// Identifier of a spawned simulation process.
///
/// Encodes a slab slot index plus a generation tag, so a wake aimed at a
/// completed (and since recycled) process is a detectable no-op.
pub type TaskId = u64;

/// What a timer does when it fires.
enum TimerAction {
    /// Makes this task runnable; see [`Sim::register_timer_wake`].
    WakeTask(TaskId),
    Wake(Waker),
    Call(Box<dyn FnOnce()>),
    Handler(Booking),
}

/// A [`TimerAction::Handler`] firing: the handler and its token.
///
/// Aligned to 8 so that it sits beside the enum tag rather than in the
/// tag's padding: there it made every move of a [`TimerAction`] copy a
/// word that straddles two narrower stores, a store-forwarding stall on
/// every timer of every kind.
#[derive(Clone, Copy)]
#[repr(align(8))]
struct Booking {
    handler: HandlerId,
    token: u32,
}

/// A timer callback shared by many timers. It is registered once with
/// [`Sim::register_handler`]; each [`Sim::schedule_handler`] then books
/// one firing with a token of the caller's choosing. Unlike
/// [`Sim::schedule`], booking allocates nothing, which is why the
/// per-packet paths use it.
pub trait TimerHandler {
    /// Runs the timer that was booked with `token`.
    fn fire(self: Rc<Self>, token: u32);
}

/// Names a [`TimerHandler`] registered with one [`Sim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HandlerId(u32);

/// Values waiting for their [`TimerHandler`] timer, each in a slot whose
/// index is the timer's token: once the slab has grown to its peak, booking
/// a timer that carries a value allocates nothing.
pub struct Parked<T> {
    slots: Vec<Option<T>>,
    free: Vec<u32>,
}

impl<T> Default for Parked<T> {
    fn default() -> Self {
        Parked {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<T> Parked<T> {
    /// Parks `value` and returns its token.
    ///
    /// # Panics
    ///
    /// Panics when 2^32 values are parked at once.
    pub fn park(&mut self, value: T) -> u32 {
        let token = match self.free.pop() {
            Some(token) => token,
            None => {
                let token = u32::try_from(self.slots.len()).expect("too many values parked");
                self.slots.push(None);
                token
            }
        };
        self.slots[token as usize] = Some(value);
        token
    }

    /// Takes back the value parked under `token`.
    ///
    /// # Panics
    ///
    /// Panics when nothing is parked under `token`.
    pub fn take(&mut self, token: u32) -> T {
        let value = self.slots[token as usize]
            .take()
            .expect("a value parked under the token");
        self.free.push(token);
        value
    }
}

/// Wake queue shared with `Waker`s. `Waker` must be `Send + Sync`, so the
/// compiler cannot prove this stays on one thread — but the simulator *is*
/// strictly single-threaded, so instead of an always-uncontended `Mutex` the
/// queue records its owner thread's [`thread_token`] and asserts it on
/// every push.
///
/// Safety: the `UnsafeCell` is only touched on the owner thread. `pop` and
/// `is_empty` are reached only through the `!Send` [`Sim`] that created the
/// queue, so they run there by construction; `push`, the one method a
/// `Waker` reaches, checks the owner first, so a waker that migrates to
/// another thread panics before reaching the cell. Each method holds its
/// mutable reference only for a single `VecDeque<u64>` operation, which
/// cannot re-enter user code.
struct ReadyQueue {
    owner: u64,
    woken: UnsafeCell<VecDeque<TaskId>>,
}

/// A process-unique, nonzero id of the calling thread. Unlike
/// `std::thread::current().id()` it needs no `Thread` handle (an `Arc`
/// clone), so the owner check costs one thread-local read.
fn thread_token() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TOKEN: Cell<u64> = const { Cell::new(0) };
    }
    TOKEN.with(|t| {
        if t.get() == 0 {
            t.set(NEXT.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

unsafe impl Send for ReadyQueue {}
unsafe impl Sync for ReadyQueue {}

impl ReadyQueue {
    fn new() -> Self {
        ReadyQueue {
            owner: thread_token(),
            woken: UnsafeCell::new(VecDeque::new()),
        }
    }

    fn push(&self, id: TaskId) {
        assert_eq!(
            thread_token(),
            self.owner,
            "Sim waker used from a foreign thread; the simulator is strictly single-threaded"
        );
        unsafe { (*self.woken.get()).push_back(id) }
    }

    fn pop(&self) -> Option<TaskId> {
        unsafe { (*self.woken.get()).pop_front() }
    }

    fn is_empty(&self) -> bool {
        unsafe { (*self.woken.get()).is_empty() }
    }
}

struct TaskWaker {
    id: TaskId,
    ready: Arc<ReadyQueue>,
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.ready.push(self.id);
    }
    fn wake_by_ref(self: &Arc<Self>) {
        self.ready.push(self.id);
    }
}

/// A live task: its future and its one `Waker`, boxed so that both keep
/// their address while the slab grows during the task's own poll.
struct Task {
    fut: BoxFuture,
    waker: Waker,
}

enum SlotState {
    Free {
        next: u32,
    },
    /// Owns the `Box<Task>` behind `task` (see [`TaskSlab::insert`]).
    /// `polling` while `drain_ready` holds the task.
    Live {
        task: NonNull<Task>,
        polling: bool,
    },
}

struct TaskSlot {
    gen: u32,
    state: SlotState,
}

const NO_SLOT: u32 = u32::MAX;

/// Task storage: a slab with an intrusive free list. Slots (and their cached
/// `Waker`s' slab indices) are recycled; generations keep stale wakes inert.
struct TaskSlab {
    slots: Vec<TaskSlot>,
    free: u32,
    live: usize,
}

fn task_id(idx: u32, gen: u32) -> TaskId {
    ((gen as u64) << 32) | idx as u64
}

fn split_id(id: TaskId) -> (u32, u32) {
    (id as u32, (id >> 32) as u32)
}

impl TaskSlab {
    fn new() -> Self {
        TaskSlab {
            slots: Vec::new(),
            free: NO_SLOT,
            live: 0,
        }
    }

    fn insert(&mut self, fut: BoxFuture, ready: &Arc<ReadyQueue>) -> TaskId {
        self.live += 1;
        let idx = if self.free != NO_SLOT {
            let idx = self.free;
            match self.slots[idx as usize].state {
                SlotState::Free { next } => self.free = next,
                SlotState::Live { .. } => unreachable!("live slot on free list"),
            }
            idx
        } else {
            let idx = self.slots.len() as u32;
            assert!(idx != NO_SLOT, "task slab exhausted");
            self.slots.push(TaskSlot {
                gen: 0,
                state: SlotState::Free { next: NO_SLOT },
            });
            idx
        };
        let id = task_id(idx, self.slots[idx as usize].gen);
        // The task's one Waker, lent to every poll.
        let waker = Waker::from(Arc::new(TaskWaker {
            id,
            ready: ready.clone(),
        }));
        let task = NonNull::from(Box::leak(Box::new(Task { fut, waker })));
        self.slots[idx as usize].state = SlotState::Live {
            task,
            polling: false,
        };
        id
    }

    /// Marks a task as being polled and returns it, so the process body can
    /// run without the slab borrowed (it may spawn or wake). `None` for
    /// stale or mid-poll wakes.
    fn begin_poll(&mut self, id: TaskId) -> Option<NonNull<Task>> {
        let (idx, gen) = split_id(id);
        let slot = self.slots.get_mut(idx as usize)?;
        if slot.gen != gen {
            return None; // task completed; slot recycled
        }
        match &mut slot.state {
            SlotState::Live { task, polling } if !*polling => {
                *polling = true;
                Some(*task)
            }
            _ => None,
        }
    }

    /// Ends the poll of a still-pending task.
    fn finish_poll(&mut self, id: TaskId) {
        let (idx, gen) = split_id(id);
        let slot = &mut self.slots[idx as usize];
        debug_assert_eq!(slot.gen, gen);
        if let SlotState::Live { polling, .. } = &mut slot.state {
            *polling = false;
        }
    }

    /// Takes every live task not being polled out of the slab and frees its
    /// slot; stale wakes for these tasks stay inert.
    fn release_live(&mut self) -> Vec<Task> {
        let mut released = Vec::new();
        for idx in 0..self.slots.len() {
            if let SlotState::Live { polling: false, .. } = self.slots[idx].state {
                // The running task is not blocked, so only idle ones go.
                released.push(*self.complete(task_id(idx as u32, self.slots[idx].gen)));
            }
        }
        released
    }

    /// Frees a task's slot and hands its box back, for the caller to drop
    /// once the slab is no longer borrowed.
    fn complete(&mut self, id: TaskId) -> Box<Task> {
        let (idx, _) = split_id(id);
        let slot = &mut self.slots[idx as usize];
        slot.gen = slot.gen.wrapping_add(1);
        let state = std::mem::replace(&mut slot.state, SlotState::Free { next: self.free });
        self.free = idx;
        self.live -= 1;
        let SlotState::Live { task, .. } = state else {
            unreachable!("completed a free slot")
        };
        // SAFETY: `task` came from `Box::leak` in `insert` and its slot, the
        // box's only owner, was just freed, so nothing else refers to it.
        unsafe { Box::from_raw(task.as_ptr()) }
    }
}

impl Drop for TaskSlab {
    fn drop(&mut self) {
        for slot in &mut self.slots {
            if let SlotState::Live { task, .. } = slot.state {
                slot.state = SlotState::Free { next: NO_SLOT };
                // SAFETY: as in `complete`; a dropped slab polls nothing.
                drop(unsafe { Box::from_raw(task.as_ptr()) });
            }
        }
    }
}

struct SimInner {
    now: Cell<Time>,
    trace: TraceSink,
    metrics: MetricsRegistry,
    /// Executor events processed: process polls + timer fires. Purely a
    /// function of the simulated program, so deterministic across runs.
    events: Cell<u64>,
    timers: RefCell<TimerWheel<TimerAction>>,
    ready: Arc<ReadyQueue>,
    tasks: RefCell<TaskSlab>,
    /// Registered timer handlers, indexed by [`HandlerId`].
    handlers: RefCell<Vec<Weak<dyn TimerHandler>>>,
    /// The task `drain_ready` is polling and its waker's data pointer, so
    /// a timer registered with that waker can name the task instead.
    polling: Cell<Option<(TaskId, *const ())>>,
}

/// Clears [`SimInner::polling`] when a poll ends, by return or by unwind.
struct PollingGuard<'a>(&'a Cell<Option<(TaskId, *const ())>>);

impl Drop for PollingGuard<'_> {
    fn drop(&mut self) {
        self.0.set(None);
    }
}

/// Handle to the simulator. Cheap to clone; every simulated component and
/// process holds one.
///
/// See the [crate-level documentation](crate) for an end-to-end example.
///
/// `Sim` is deliberately `!Send`: the executor is single-threaded and its
/// wake path relies on that, so moving a simulator across threads must not
/// compile:
///
/// ```compile_fail
/// fn requires_send<T: Send>() {}
/// requires_send::<shrimp_sim::Sim>();
/// ```
#[derive(Clone)]
pub struct Sim {
    inner: Rc<SimInner>,
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Sim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sim")
            .field("now", &self.inner.now.get())
            .field("live_tasks", &self.live_tasks())
            .finish()
    }
}

impl Sim {
    /// Creates an empty simulator at time zero.
    pub fn new() -> Self {
        Sim {
            inner: Rc::new(SimInner {
                now: Cell::new(0),
                trace: TraceSink::new(),
                metrics: MetricsRegistry::new(),
                events: Cell::new(0),
                timers: RefCell::new(TimerWheel::new()),
                ready: Arc::new(ReadyQueue::new()),
                tasks: RefCell::new(TaskSlab::new()),
                handlers: RefCell::new(Vec::new()),
                polling: Cell::new(None),
            }),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.inner.now.get()
    }

    /// The simulator's trace sink (disabled by default; see
    /// [`TraceSink::enable`]).
    pub fn trace(&self) -> &TraceSink {
        &self.inner.trace
    }

    /// The simulator's metrics registry: counters always on, gauges and
    /// histograms off until [`MetricsRegistry::enable`].
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.inner.metrics
    }

    /// Number of processes that have been spawned and have not yet completed.
    pub fn live_tasks(&self) -> usize {
        self.inner.tasks.borrow().live
    }

    /// Number of executor events processed so far: process polls plus timer
    /// fires. A pure function of the simulated program — identical across
    /// runs and hosts — which makes it the denominator-free workload measure
    /// for events-per-second reporting.
    pub fn events(&self) -> u64 {
        self.inner.events.get()
    }

    fn bump_events(&self) {
        self.inner.events.set(self.inner.events.get() + 1);
    }

    /// Spawns a simulation process; it starts running at the current time on
    /// the next executor iteration. Returns a [`TaskHandle`] that other
    /// processes may await for the process's output.
    pub fn spawn<F>(&self, fut: F) -> TaskHandle<F::Output>
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        let state = Rc::new(RefCell::new(JoinState::<F::Output> {
            value: None,
            done: false,
            waiters: Vec::new(),
        }));
        let st = state.clone();
        let wrapped: BoxFuture = Box::pin(async move {
            let out = fut.await;
            let mut s = st.borrow_mut();
            s.value = Some(out);
            s.done = true;
            for w in s.waiters.drain(..) {
                w.wake();
            }
        });
        let id = self
            .inner
            .tasks
            .borrow_mut()
            .insert(wrapped, &self.inner.ready);
        // Newly spawned tasks are immediately runnable.
        self.inner.ready.push(id);
        TaskHandle { state }
    }

    /// Schedules `f` to run at absolute simulated time `at`; the returned
    /// id can [`cancel`](Self::cancel) it.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn schedule<F: FnOnce() + 'static>(&self, at: Time, f: F) -> TimerId {
        assert!(at >= self.now(), "schedule() into the past");
        self.inner
            .timers
            .borrow_mut()
            .insert(at, TimerAction::Call(Box::new(f)))
    }

    /// Schedules `f` to run after `delay`.
    pub fn schedule_in<F: FnOnce() + 'static>(&self, delay: Time, f: F) -> TimerId {
        self.schedule(self.now() + delay, f)
    }

    /// Registers a timer handler. The simulator holds it weakly, so a
    /// handler may own a clone of this `Sim`; a firing booked for a
    /// handler that has since been dropped does nothing.
    pub fn register_handler(&self, handler: Weak<dyn TimerHandler>) -> HandlerId {
        let mut handlers = self.inner.handlers.borrow_mut();
        handlers.push(handler);
        HandlerId(u32::try_from(handlers.len() - 1).expect("timer handler registry exhausted"))
    }

    /// Schedules `handler`'s [`TimerHandler::fire`] with `token` at
    /// absolute simulated time `at`, ordered exactly like a
    /// [`Sim::schedule`] call made at this point; the returned id can
    /// [`cancel`](Self::cancel) it.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn schedule_handler(&self, at: Time, handler: HandlerId, token: u32) -> TimerId {
        assert!(at >= self.now(), "schedule() into the past");
        self.inner
            .timers
            .borrow_mut()
            .insert(at, TimerAction::Handler(Booking { handler, token }))
    }

    /// Cancels a scheduled call: it never runs and is not counted as an
    /// event. Returns `false` if it already ran or was already cancelled.
    pub fn cancel(&self, id: TimerId) -> bool {
        self.inner.timers.borrow_mut().cancel(id)
    }

    /// Returns a future that completes at absolute time `at` (immediately if
    /// `at` is not in the future).
    pub fn sleep_until(&self, at: Time) -> Sleep {
        Sleep {
            sim: self.clone(),
            at,
            registered: false,
        }
    }

    /// Returns a future that completes after `duration` of simulated time.
    pub fn sleep(&self, duration: Time) -> Sleep {
        self.sleep_until(self.now() + duration)
    }

    /// Schedules a wake of `waker` at `at`. The waker of the task being
    /// polled is recorded as its [`TaskId`]; any other waker is cloned.
    fn register_timer_wake(&self, at: Time, waker: &Waker) {
        let action = match self.inner.polling.get() {
            Some((id, data)) if data == waker.data() => TimerAction::WakeTask(id),
            _ => TimerAction::Wake(waker.clone()),
        };
        self.inner.timers.borrow_mut().insert(at, action);
    }

    /// Polls `first`, then every woken process in wake order. Returns `true`
    /// if any process was polled.
    fn drain_ready(&self, first: Option<TaskId>) -> bool {
        let mut any = false;
        let mut first = first;
        while let Some(id) = first.take().or_else(|| self.inner.ready.pop()) {
            // Mark the task as polled and release the slab borrow: the
            // process body may spawn or wake.
            let Some(task) = self.inner.tasks.borrow_mut().begin_poll(id) else {
                continue; // completed or duplicate wake
            };
            any = true;
            self.bump_events();
            // SAFETY: the box stays put and alive until `complete` frees
            // it, which happens only below, after the poll, or through
            // `release_live`, which skips polled tasks. `polling` keeps any
            // other `begin_poll` from handing the same task out meanwhile,
            // so this is the only reference to it.
            let Task { fut, waker } = unsafe { &mut *task.as_ptr() };
            let polled = {
                self.inner.polling.set(Some((id, waker.data())));
                let _clear = PollingGuard(&self.inner.polling);
                fut.as_mut().poll(&mut Context::from_waker(waker))
            };
            match polled {
                Poll::Ready(()) => {
                    let done = self.inner.tasks.borrow_mut().complete(id);
                    drop(done);
                }
                Poll::Pending => self.inner.tasks.borrow_mut().finish_poll(id),
            }
        }
        any
    }

    /// Fires one timer. A task-id wake is returned rather than queued: the
    /// ready queue is empty whenever a timer fires, so polling the task
    /// first is the order queueing it would give.
    fn fire(&self, at: Time, action: TimerAction) -> Option<TaskId> {
        debug_assert!(at >= self.inner.now.get());
        debug_assert!(self.inner.ready.is_empty());
        self.inner.now.set(at);
        self.bump_events();
        match action {
            // A stale id (the task finished first) is dropped by
            // `begin_poll`, exactly like a stale waker's wake.
            TimerAction::WakeTask(id) => return Some(id),
            TimerAction::Wake(w) => w.wake(),
            TimerAction::Call(f) => f(),
            TimerAction::Handler(Booking { handler, token }) => {
                let handler = self.inner.handlers.borrow()[handler.0 as usize].upgrade();
                if let Some(handler) = handler {
                    handler.fire(token);
                }
            }
        }
        None
    }

    /// Runs the simulation until no process is runnable and no timer is
    /// pending. Returns the final simulated time.
    ///
    /// Processes still alive when `run` returns are *blocked forever*
    /// (deadlocked or awaiting an event nobody will produce); callers that
    /// consider this a bug should use [`Sim::run_to_completion`].
    pub fn run(&self) -> Time {
        let mut woken = None;
        loop {
            self.drain_ready(woken);
            let entry = self.inner.timers.borrow_mut().pop();
            match entry {
                Some((at, action)) => woken = self.fire(at, action),
                None => break,
            }
        }
        self.inner.now.get()
    }

    /// Like [`Sim::run`], but panics if any process is still alive afterwards.
    ///
    /// # Panics
    ///
    /// Panics if the simulation deadlocked (processes remain but no event can
    /// wake them).
    pub fn run_to_completion(&self) -> Time {
        let t = self.run();
        let live = self.live_tasks();
        assert!(
            live == 0,
            "simulation deadlocked at t={t} ps with {live} blocked process(es)"
        );
        t
    }

    /// Releases every process that is blocked forever: drops its future,
    /// and with it all the process captured, and frees its slot, so
    /// [`Sim::live_tasks`] reads 0 afterwards. A run calls this at its end:
    /// a blocked process often holds handles to the components that own
    /// this `Sim`, a cycle that would otherwise keep the whole simulated
    /// machine alive.
    ///
    /// Does nothing while a timer pends or a process is runnable, since a
    /// blocked process might still be woken. The futures leave the task
    /// slab before any is dropped, so their `Drop` code may use the `Sim`.
    pub fn release_blocked(&self) {
        if self.has_runnable() || self.next_deadline().is_some() {
            return;
        }
        // The slab borrow ends with this statement, before any drop runs.
        let released = self.inner.tasks.borrow_mut().release_live();
        drop(released);
    }

    /// Earliest pending timer deadline, or `None` when no timer is
    /// scheduled. Woken-but-unpolled processes are *not* timers; see
    /// [`Sim::has_runnable`]. The sharded conservative-parallel runner
    /// ([`crate::shard`]) reads this after each window to compute the next
    /// global safe horizon.
    pub fn next_deadline(&self) -> Option<Time> {
        self.inner.timers.borrow_mut().peek_deadline()
    }

    /// `true` when at least one woken process awaits the next executor
    /// iteration (it would run at the *current* time, before any timer).
    pub fn has_runnable(&self) -> bool {
        !self.inner.ready.is_empty()
    }

    /// Runs until simulated time would exceed `limit`; events at exactly
    /// `limit` still fire. Returns the final time (`<= limit`).
    pub fn run_for(&self, limit: Time) -> Time {
        let mut woken = None;
        loop {
            self.drain_ready(woken);
            let fire = {
                let mut timers = self.inner.timers.borrow_mut();
                matches!(timers.peek_deadline(), Some(at) if at <= limit)
            };
            if !fire {
                break;
            }
            let (at, action) = self.inner.timers.borrow_mut().pop().unwrap();
            woken = self.fire(at, action);
        }
        self.inner.now.get()
    }
}

/// Future returned by [`Sim::sleep`] / [`Sim::sleep_until`].
#[derive(Debug)]
pub struct Sleep {
    sim: Sim,
    at: Time,
    registered: bool,
}

impl Future for Sleep {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.sim.now() >= self.at {
            return Poll::Ready(());
        }
        if !self.registered {
            self.registered = true;
            let at = self.at;
            self.sim.register_timer_wake(at, cx.waker());
        }
        Poll::Pending
    }
}

struct JoinState<T> {
    value: Option<T>,
    done: bool,
    waiters: Vec<Waker>,
}

/// Handle to a spawned process; awaiting it yields the process output.
///
/// Dropping the handle detaches the process (it keeps running).
pub struct TaskHandle<T> {
    state: Rc<RefCell<JoinState<T>>>,
}

impl<T> std::fmt::Debug for TaskHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskHandle")
            .field("done", &self.state.borrow().done)
            .finish()
    }
}

impl<T> TaskHandle<T> {
    /// Returns the output if the process has completed, without blocking.
    /// Returns `None` if it is still running or the value was already taken.
    pub fn try_take(&self) -> Option<T> {
        self.state.borrow_mut().value.take()
    }

    /// `true` once the process has completed.
    pub fn is_done(&self) -> bool {
        self.state.borrow().done
    }
}

impl<T> Future for TaskHandle<T> {
    type Output = T;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        let mut st = self.state.borrow_mut();
        if st.done {
            match st.value.take() {
                Some(v) => Poll::Ready(v),
                None => panic!("TaskHandle polled after output was taken"),
            }
        } else {
            st.waiters.push(cx.waker().clone());
            Poll::Pending
        }
    }
}

/// Awaits all handles in a vector, returning outputs in order.
///
/// This is the join-all barrier used by experiment drivers to wait for all
/// per-node processes.
pub async fn join_all<T>(handles: Vec<TaskHandle<T>>) -> Vec<T> {
    let mut out = Vec::with_capacity(handles.len());
    for h in handles {
        out.push(h.await);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::Queue;
    use crate::time::{ns, us};

    #[test]
    fn empty_sim_finishes_at_zero() {
        let sim = Sim::new();
        assert_eq!(sim.run(), 0);
    }

    #[test]
    fn sleep_advances_time() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.spawn(async move {
            s.sleep(us(3)).await;
            s.sleep(us(2)).await;
        });
        assert_eq!(sim.run_to_completion(), us(5));
    }

    #[test]
    fn timers_fire_in_time_then_seq_order() {
        let sim = Sim::new();
        let log: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(Vec::new()));
        for (i, t) in [(1u32, us(2)), (2, us(1)), (3, us(2)), (4, us(1))] {
            let log = log.clone();
            sim.schedule(t, move || log.borrow_mut().push(i));
        }
        sim.run();
        // Same-time entries keep scheduling order.
        assert_eq!(*log.borrow(), vec![2, 4, 1, 3]);
    }

    #[test]
    fn spawned_tasks_start_at_spawn_time() {
        let sim = Sim::new();
        let s = sim.clone();
        let h = sim.spawn(async move {
            s.sleep(us(1)).await;
            let inner = s.spawn(async { 7 });
            inner.await
        });
        sim.run_to_completion();
        assert_eq!(h.try_take(), Some(7));
    }

    #[test]
    fn join_all_collects_in_order() {
        let sim = Sim::new();
        let mut handles = Vec::new();
        for i in 0..4u64 {
            let s = sim.clone();
            handles.push(sim.spawn(async move {
                // Later-indexed tasks sleep less, so completion order is
                // reversed; join_all must still return spawn order.
                s.sleep(ns(100 - i * 10)).await;
                i
            }));
        }
        let joined = sim.spawn(async move { join_all(handles).await });
        sim.run_to_completion();
        assert_eq!(joined.try_take(), Some(vec![0, 1, 2, 3]));
    }

    #[test]
    fn run_for_stops_at_limit() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.spawn(async move {
            s.sleep(us(10)).await;
        });
        assert_eq!(sim.run_for(us(4)), 0); // nothing fired before the limit
        assert_eq!(sim.live_tasks(), 1);
        assert_eq!(sim.run(), us(10));
        assert_eq!(sim.live_tasks(), 0);
    }

    #[test]
    fn schedule_earlier_after_run_for_peek_still_fires_in_order() {
        // run_for's non-firing peek may advance the wheel cursor; an
        // earlier-deadline schedule afterwards must still fire first.
        let sim = Sim::new();
        let log: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(Vec::new()));
        {
            let log = log.clone();
            sim.schedule(us(10), move || log.borrow_mut().push(1));
        }
        assert_eq!(sim.run_for(us(4)), 0);
        {
            let log = log.clone();
            sim.schedule(us(5), move || log.borrow_mut().push(2));
        }
        sim.run();
        assert_eq!(*log.borrow(), vec![2, 1]);
    }

    #[test]
    #[should_panic(expected = "deadlocked")]
    fn deadlock_detected() {
        let sim = Sim::new();
        let (_tx, rx) = crate::queue::unbounded::<u8>();
        sim.spawn(async move {
            rx.recv().await;
        });
        sim.run_to_completion();
    }

    #[test]
    fn determinism_two_runs_identical() {
        fn run_once() -> (Time, Vec<u64>) {
            let sim = Sim::new();
            let log: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
            for i in 0..8u64 {
                let s = sim.clone();
                let log = log.clone();
                sim.spawn(async move {
                    s.sleep(ns(i * 37 % 11)).await;
                    log.borrow_mut().push(i);
                    s.sleep(ns(i * 13 % 7)).await;
                    log.borrow_mut().push(100 + i);
                });
            }
            let t = sim.run_to_completion();
            let l = log.borrow().clone();
            (t, l)
        }
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn event_counter_is_deterministic_and_monotone() {
        fn run_once() -> u64 {
            let sim = Sim::new();
            for i in 0..8u64 {
                let s = sim.clone();
                sim.spawn(async move {
                    s.sleep(ns(i * 31 % 13)).await;
                    s.sleep(ns(i * 7 % 5)).await;
                });
            }
            sim.run_to_completion();
            sim.events()
        }
        let e = run_once();
        assert!(e > 0, "polls and timer fires must be counted");
        assert_eq!(e, run_once(), "event count must be deterministic");
    }

    #[test]
    fn cancelled_call_never_runs_and_is_not_an_event() {
        let sim = Sim::new();
        let ran = Rc::new(Cell::new(0));
        let r = ran.clone();
        let gone = sim.schedule(ns(10), move || r.set(r.get() + 1));
        let r = ran.clone();
        let kept = sim.schedule(ns(20), move || r.set(r.get() + 10));
        assert!(sim.cancel(gone));
        assert!(!sim.cancel(gone), "a second cancel is a no-op");
        assert_eq!(sim.run(), ns(20));
        assert_eq!((ran.get(), sim.events()), (10, 1));
        assert!(!sim.cancel(kept), "a call that ran cannot be cancelled");
    }

    /// Wakes `inner` and records that it did: a waker of its own that a
    /// combinator lends to what it polls.
    struct Relay {
        inner: Waker,
        used: std::sync::atomic::AtomicBool,
    }

    impl Wake for Relay {
        fn wake(self: Arc<Self>) {
            self.wake_by_ref();
        }
        fn wake_by_ref(self: &Arc<Self>) {
            self.used.store(true, Ordering::Relaxed);
            self.inner.wake_by_ref();
        }
    }

    #[test]
    fn sleep_under_a_combinator_waker_still_wakes_its_task() {
        let sim = Sim::new();
        let s = sim.clone();
        let used = Rc::new(Cell::new(false));
        let u = used.clone();
        let h = sim.spawn(async move {
            // A hand-rolled join of one sleep that polls it with its own
            // waker, so the timer cannot name the task and keeps the waker.
            let mut sleep = Box::pin(s.sleep(ns(10)));
            let mut relay: Option<Arc<Relay>> = None;
            std::future::poll_fn(|cx| {
                let r = relay.get_or_insert_with(|| {
                    Arc::new(Relay {
                        inner: cx.waker().clone(),
                        used: Default::default(),
                    })
                });
                u.set(r.used.load(Ordering::Relaxed));
                let waker = Waker::from(r.clone());
                sleep.as_mut().poll(&mut Context::from_waker(&waker))
            })
            .await;
            s.now()
        });
        assert_eq!(sim.run_to_completion(), ns(10));
        assert_eq!(h.try_take(), Some(ns(10)));
        assert!(
            used.get(),
            "the timer did not wake through the combinator's waker"
        );
    }

    #[test]
    fn task_id_wake_of_a_finished_task_is_inert_and_counted() {
        let sim = Sim::new();
        let (tx, rx) = crate::queue::unbounded::<u8>();
        let s = sim.clone();
        sim.spawn(async move {
            // Polled with the task's own waker: a task-id timer at 10 ns.
            let mut sleep = Box::pin(s.sleep(ns(10)));
            let mut recv = Box::pin(rx.recv());
            std::future::poll_fn(|cx| {
                assert!(sleep.as_mut().poll(cx).is_pending());
                recv.as_mut().poll(cx).map(|_| ())
            })
            .await;
        });
        sim.schedule(ns(1), move || tx.send(1));
        // A second task takes the finished task's slot before the timer.
        let polls = Rc::new(Cell::new(0));
        let (s, p) = (sim.clone(), polls.clone());
        sim.schedule(ns(2), move || {
            s.spawn(async move {
                p.set(p.get() + 1);
                std::future::pending::<()>().await;
            });
        });
        assert_eq!(sim.run(), ns(10));
        assert_eq!(polls.get(), 1, "the stale timer polled the slot's new task");
        assert_eq!(sim.inner.tasks.borrow().slots.len(), 1);
        // Polls at 0 and 1 ns, the calls at 1 and 2 ns, the new task's
        // first poll, and the inert fire at 10 ns.
        assert_eq!(sim.events(), 6);
    }

    /// Logs each firing's token.
    struct Logger(RefCell<Vec<u32>>);

    impl TimerHandler for Logger {
        fn fire(self: Rc<Self>, token: u32) {
            self.0.borrow_mut().push(token);
        }
    }

    #[test]
    fn handler_timers_order_and_cancel_like_calls() {
        let sim = Sim::new();
        let logger = Rc::new(Logger(RefCell::new(Vec::new())));
        let weak: Weak<Logger> = Rc::downgrade(&logger);
        let id = sim.register_handler(weak);
        // Handler firings and calls share one (time, seq) order.
        sim.schedule_handler(ns(20), id, 1);
        let l = logger.clone();
        sim.schedule(ns(10), move || l.0.borrow_mut().push(100));
        let gone = sim.schedule_handler(ns(10), id, 2);
        sim.schedule_handler(ns(10), id, 3);
        assert!(sim.cancel(gone));
        assert_eq!(sim.run(), ns(20));
        assert_eq!(*logger.0.borrow(), vec![100, 3, 1]);
        assert_eq!(sim.events(), 3);
    }

    #[test]
    fn a_dropped_handler_fires_nothing_but_still_counts() {
        let sim = Sim::new();
        let logger = Rc::new(Logger(RefCell::new(Vec::new())));
        let weak: Weak<Logger> = Rc::downgrade(&logger);
        let id = sim.register_handler(weak.clone());
        sim.schedule_handler(ns(5), id, 7);
        drop(logger);
        assert_eq!(sim.run(), ns(5));
        assert_eq!(sim.events(), 1);
        assert!(weak.upgrade().is_none());
    }

    #[test]
    fn cross_thread_wake_panics_instead_of_racing() {
        let sim = Sim::new();
        let waker = Waker::from(Arc::new(TaskWaker {
            id: 0,
            ready: sim.inner.ready.clone(),
        }));
        let joined = std::thread::spawn(move || waker.wake()).join();
        assert!(
            joined.is_err(),
            "waking from a foreign thread must panic, not touch the queue"
        );
    }

    #[test]
    fn task_slots_are_recycled_with_inert_stale_wakes() {
        let sim = Sim::new();
        for round in 0..50u64 {
            let s = sim.clone();
            let h = sim.spawn(async move {
                s.sleep(ns(round)).await;
                round
            });
            sim.run();
            assert_eq!(h.try_take(), Some(round));
        }
        // 50 sequential tasks must reuse one slot, not grow 50.
        assert!(sim.inner.tasks.borrow().slots.len() <= 2);
    }

    /// Touches the simulator's task slab when dropped.
    struct CountsTasksOnDrop(Sim);

    impl Drop for CountsTasksOnDrop {
        fn drop(&mut self) {
            self.0.live_tasks();
        }
    }

    #[test]
    fn release_blocked_frees_what_a_blocked_process_captured() {
        let sim = Sim::new();
        let queue: Queue<u32> = Queue::new();
        let captured = Rc::new(());
        let (q, held, guard) = (
            queue.clone(),
            captured.clone(),
            CountsTasksOnDrop(sim.clone()),
        );
        sim.spawn(async move {
            let _held = (held, guard);
            q.recv().await;
        });
        sim.run();
        assert_eq!((sim.live_tasks(), Rc::strong_count(&captured)), (1, 2));

        sim.release_blocked();
        assert_eq!(sim.live_tasks(), 0);
        assert_eq!(Rc::strong_count(&captured), 1, "the future was not dropped");
        // A late send wakes the released process's stale id: inert.
        let events = sim.events();
        queue.send(1);
        sim.run();
        assert_eq!((sim.live_tasks(), sim.events()), (0, events));
    }

    #[test]
    fn release_blocked_waits_while_a_timer_pends_or_a_process_is_runnable() {
        let sim = Sim::new();
        let queue: Queue<u32> = Queue::new();
        let q = queue.clone();
        let h = sim.spawn(async move { q.recv().await });
        sim.release_blocked(); // spawned, not yet polled: runnable
        assert_eq!(sim.live_tasks(), 1);

        sim.schedule(ns(5), move || queue.send(7));
        sim.run_for(ns(1)); // the process now waits on the timer's send
        assert!(!sim.has_runnable());
        sim.release_blocked();
        assert_eq!(sim.live_tasks(), 1);

        sim.run();
        assert_eq!(h.try_take(), Some(Some(7)));
    }
}
