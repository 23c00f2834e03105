//! Conservative parallel discrete-event execution over sharded [`Sim`]s.
//!
//! The single-threaded executor in [`crate::executor`] is the unit of
//! determinism: one [`Sim`], one timer wheel, one ready queue, strict
//! `(time, seq)` order. This module composes *several* of those units into
//! one logical simulation, Chandy–Misra style, without giving that
//! determinism up:
//!
//! * Every **shard** owns a full `Sim` (its own wheel and ready queue) built
//!   and run on its own OS thread — shard 0 on the caller's, the others on
//!   scoped threads. `Sim` stays `!Send`; only the shard's *builder
//!   closure* and the messages cross threads.
//! * Shards interact **only** through timestamped messages pushed onto
//!   lock-free per-edge queues (`EdgeQueue`); in the SHRIMP machine the
//!   routing backplane is the one such channel, and its link + transceiver
//!   latency is the synchronization slack.
//! * Execution proceeds in **windows**: with `m` the earliest pending event
//!   anywhere (local timers or in-flight messages) and `L` the minimum
//!   cross-shard lookahead, every event strictly before the global safe
//!   horizon `H = m + L` is causally independent of anything another shard
//!   has yet to do — any message sent at `t ≥ m` arrives no earlier than
//!   `t + L ≥ H`. Each shard runs `run_for(H - 1)`, publishes its earliest
//!   pending event and cross-shard send in its report slot, and arrives at
//!   the barrier. There is no coordinator; every shard then reads all slots
//!   and derives the same next horizon and drain decision itself.
//! * The **barrier** is an arrival counter and a generation word: the last
//!   arriver resets the count, bumps the generation and unparks the rest. A
//!   waiter spins a bounded while first, if the host has a core per shard.
//!   One barrier per window is enough because slots and edge queues are
//!   **double-buffered by step parity**: step `k` writes parity `k & 1`,
//!   step `k + 1` reads it, and step `k + 2` cannot start writing it again
//!   before every shard has finished step `k + 1`.
//! * **Determinism**: inbound messages are merged into a shard's wheel in
//!   `(arrival, source shard, per-edge seq)` order, and the parity rule fixes
//!   which merge an envelope lands in (the one after the step that sent it,
//!   whatever the thread timing), so a sharded run is bit-reproducible, and
//!   `ExecMode::Serial` (the cfg-gated single-thread oracle, compiled like
//!   `legacy-sched`) replays the exact same schedule for differential
//!   testing.
//! * `shards == 1` degenerates to today's executor: the runner builds one
//!   `Sim` and calls [`Sim::run`]; no windows, no barriers, no queues.
//!
//! What may run sharded: a model is shard-safe when every cross-shard
//! interaction honours the lookahead (`arrival ≥ now + L`) and same-time
//! message handling is order-independent (commutative state updates). The
//! SHRIMP cluster meets both conditions on `shrimp-core`'s
//! `ClusterBuilder::launch` path: nodes are partitioned across shards, the
//! decoupled mesh transport keeps no shared link reservations, and the
//! fault plane draws from one RNG stream per directed mesh edge, so the
//! mesh latency is the only bound on a window. Only the classic contended
//! transport, whose link reservations couple all nodes with zero
//! lookahead, stays on one `Sim`.

use std::cell::{Cell, RefCell};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::ptr;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::{self, Thread};

use crate::executor::Sim;
use crate::time::Time;

// ---------------------------------------------------------------------------
// Lock-free per-edge message queues
// ---------------------------------------------------------------------------

/// A timestamped message in flight between two shards.
struct Envelope<M> {
    arrival: Time,
    src: usize,
    /// Per-edge sequence number assigned by the producer; the merge sorts on
    /// `(arrival, src, seq)` so insertion order is thread-schedule-free.
    seq: u64,
    msg: M,
}

struct EdgeNode<M> {
    env: Envelope<M>,
    next: *mut EdgeNode<M>,
}

/// Lock-free intrusive stack carrying one directed shard-to-shard edge.
///
/// The producer (source shard, during one step) pushes with a CAS loop; the
/// consumer (destination shard, in the next step) takes the whole list with
/// one atomic swap. The queue is safe under full concurrency regardless.
struct EdgeQueue<M> {
    head: AtomicPtr<EdgeNode<M>>,
}

unsafe impl<M: Send> Send for EdgeQueue<M> {}
unsafe impl<M: Send> Sync for EdgeQueue<M> {}

impl<M> EdgeQueue<M> {
    fn new() -> Self {
        EdgeQueue {
            head: AtomicPtr::new(ptr::null_mut()),
        }
    }

    fn push(&self, env: Envelope<M>) {
        let node = Box::into_raw(Box::new(EdgeNode {
            env,
            next: ptr::null_mut(),
        }));
        loop {
            let head = self.head.load(Ordering::Acquire);
            // Safety: `node` came from Box::into_raw above and is not yet
            // shared; writing its link before publication is unobservable.
            unsafe { (*node).next = head };
            if self
                .head
                .compare_exchange_weak(head, node, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                break;
            }
        }
    }

    /// Moves every queued envelope into `out`, newest first: the merge
    /// sorts on a key unique per envelope, so the order taken is moot.
    fn drain_into(&self, out: &mut Vec<Envelope<M>>) {
        let mut head = self.head.swap(ptr::null_mut(), Ordering::AcqRel);
        while !head.is_null() {
            // Safety: nodes are only produced by `push` and ownership of the
            // whole chain transferred by the swap above.
            let node = unsafe { Box::from_raw(head) };
            head = node.next;
            out.push(node.env);
        }
    }
}

impl<M> Drop for EdgeQueue<M> {
    fn drop(&mut self) {
        self.drain_into(&mut Vec::new());
    }
}

/// The full mesh of directed edges, two queues (one per step parity) per
/// edge, indexed `(src * shards + dst) * 2 + parity`.
struct Fabric<M> {
    shards: usize,
    edges: Vec<EdgeQueue<M>>,
}

impl<M> Fabric<M> {
    fn new(shards: usize) -> Self {
        Fabric {
            shards,
            edges: (0..shards * shards * 2).map(|_| EdgeQueue::new()).collect(),
        }
    }

    fn edge(&self, src: usize, dst: usize, parity: usize) -> &EdgeQueue<M> {
        &self.edges[(src * self.shards + dst) * 2 + parity]
    }
}

// ---------------------------------------------------------------------------
// Per-shard context
// ---------------------------------------------------------------------------

type Handler<M> = Rc<dyn Fn(Time, M)>;

/// Shared state of one shard. Lives on the shard's thread behind an `Rc`
/// (deliberately `!Send` — it owns the shard's [`Sim`]); [`ShardCtx`] and
/// [`ShardSender`] are views of it.
struct ShardCore<M> {
    shard: usize,
    shards: usize,
    lookahead: Time,
    sim: Sim,
    fabric: Arc<Fabric<M>>,
    handler: RefCell<Option<Handler<M>>>,
    /// Next per-edge sequence number, one slot per destination shard.
    edge_seq: RefCell<Vec<u64>>,
    /// Earliest arrival pushed cross-shard since the last barrier report.
    sent_min: Cell<Option<Time>>,
    /// Parity of the protocol step in progress (building is step 0, then one
    /// step per window or drain): cross-shard sends go to its edge queues.
    parity: Cell<usize>,
    /// The merge buffer, kept between steps so merging allocates nothing.
    batch: RefCell<Vec<Envelope<M>>>,
}

impl<M: 'static> ShardCore<M> {
    fn send(self: &Rc<Self>, dst: usize, arrival: Time, msg: M) {
        assert!(dst < self.shards, "send to shard {dst} of {}", self.shards);
        let now = self.sim.now();
        if dst == self.shard {
            assert!(arrival >= now, "same-shard send into the past");
            self.dispatch(arrival, msg);
            return;
        }
        assert!(
            arrival >= now + self.lookahead,
            "cross-shard send violates lookahead: arrival {arrival} < now {now} + {}",
            self.lookahead
        );
        let seq = {
            let mut seqs = self.edge_seq.borrow_mut();
            let s = seqs[dst];
            seqs[dst] += 1;
            s
        };
        let edge = self.fabric.edge(self.shard, dst, self.parity.get());
        edge.push(Envelope {
            arrival,
            src: self.shard,
            seq,
            msg,
        });
        let min = self.sent_min.get().map_or(arrival, |m| m.min(arrival));
        self.sent_min.set(Some(min));
    }

    /// Schedules the delivery handler at `arrival` on this shard's wheel.
    fn dispatch(self: &Rc<Self>, arrival: Time, msg: M) {
        let core = Rc::clone(self);
        self.sim.schedule(arrival, move || {
            let h = core
                .handler
                .borrow()
                .clone()
                .expect("shard received a message but no on_message handler is set");
            h(arrival, msg);
        });
    }

    /// Starts the next protocol step: drains every inbound edge of the
    /// previous step's parity and merges the messages into the wheel in
    /// `(arrival, src shard, per-edge seq)` order — the deterministic merge
    /// that keeps `(time, seq)` event order independent of thread timing.
    fn begin_step(self: &Rc<Self>) {
        let drain = self.parity.get();
        self.parity.set(drain ^ 1);
        let mut batch = self.batch.take();
        for src in (0..self.shards).filter(|&src| src != self.shard) {
            let edge = self.fabric.edge(src, self.shard, drain);
            edge.drain_into(&mut batch);
        }
        batch.sort_unstable_by_key(|e| (e.arrival, e.src, e.seq));
        for env in batch.drain(..) {
            self.dispatch(env.arrival, env.msg);
        }
        self.batch.replace(batch);
    }

    /// Earliest event this shard may yet produce or fire: a woken process
    /// counts as pending *now*, else the earliest timer.
    fn pending(&self) -> Option<Time> {
        if self.sim.has_runnable() {
            Some(self.sim.now())
        } else {
            self.sim.next_deadline()
        }
    }
}

/// A shard's face of the sharded run, handed to its builder on the shard's
/// own thread.
pub struct ShardCtx<M> {
    core: Rc<ShardCore<M>>,
}

impl<M: 'static> ShardCtx<M> {
    /// The shard's simulator. Build the shard's whole world on it.
    pub fn sim(&self) -> &Sim {
        &self.core.sim
    }

    /// This shard's index.
    pub fn shard(&self) -> usize {
        self.core.shard
    }

    /// Total number of shards in the run.
    pub fn shards(&self) -> usize {
        self.core.shards
    }

    /// The run's minimum cross-shard lookahead.
    pub fn lookahead(&self) -> Time {
        self.core.lookahead
    }

    /// Registers the delivery handler invoked (at the message's arrival
    /// time, on this shard's thread) for every message addressed to this
    /// shard. Must be set during building if the shard ever receives.
    pub fn on_message(&self, f: impl Fn(Time, M) + 'static) {
        *self.core.handler.borrow_mut() = Some(Rc::new(f));
    }

    /// Sends `msg` to shard `dst`, arriving at absolute simulated time
    /// `arrival`.
    ///
    /// # Panics
    ///
    /// Cross-shard sends must respect the lookahead
    /// (`arrival >= now + lookahead`); same-shard sends only that `arrival`
    /// is not in the past. Violations panic — they would break the
    /// conservative synchronization contract.
    pub fn send(&self, dst: usize, arrival: Time, msg: M) {
        self.core.send(dst, arrival, msg)
    }

    /// A clonable sending handle for use inside spawned processes, which
    /// outlive the builder's borrow of the context.
    pub fn sender(&self) -> ShardSender<M> {
        ShardSender {
            core: Rc::clone(&self.core),
        }
    }
}

/// Clonable sending half of a [`ShardCtx`], for processes spawned on the
/// shard's [`Sim`]. `!Send`, like everything else on the shard thread.
pub struct ShardSender<M> {
    core: Rc<ShardCore<M>>,
}

impl<M> Clone for ShardSender<M> {
    fn clone(&self) -> Self {
        ShardSender {
            core: Rc::clone(&self.core),
        }
    }
}

impl<M: 'static> ShardSender<M> {
    /// Sends `msg` to shard `dst` at `arrival`; see [`ShardCtx::send`].
    pub fn send(&self, dst: usize, arrival: Time, msg: M) {
        self.core.send(dst, arrival, msg)
    }

    /// The owning shard's index.
    pub fn shard(&self) -> usize {
        self.core.shard
    }

    /// Total number of shards in the run.
    pub fn shards(&self) -> usize {
        self.core.shards
    }

    /// The run's minimum cross-shard lookahead.
    pub fn lookahead(&self) -> Time {
        self.core.lookahead
    }
}

// ---------------------------------------------------------------------------
// Run configuration and outcome
// ---------------------------------------------------------------------------

/// Shard-count selection, shared by the engine, the bench matrix, and the
/// harness CLI so there is exactly one spelling of "how many shards".
///
/// `Auto` follows the surrounding context (the harness `--shards` flag, or
/// one shard when standalone); `Fixed` pins a count regardless of context —
/// the bench matrix uses it for the pinned speedup-comparison rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Shards {
    /// Follow the context's shard count.
    #[default]
    Auto,
    /// Exactly this many shards, independent of context.
    Fixed(usize),
}

impl Shards {
    /// Resolves to a concrete shard count: `Fixed` wins, `Auto` takes the
    /// context's count; both are clamped to at least one shard.
    pub fn resolve(self, auto: usize) -> usize {
        match self {
            Shards::Auto => auto.max(1),
            Shards::Fixed(k) => k.max(1),
        }
    }
}

/// How the shards execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// One OS thread per shard (the production path).
    #[default]
    Threaded,
    /// Every shard on the calling thread, windows replayed round-robin in
    /// shard order: the differential oracle proving the threaded path adds
    /// no nondeterminism. Compiled only for tests and the `serial-shards`
    /// feature, like the executor's `legacy-sched`.
    #[cfg(any(test, feature = "serial-shards"))]
    Serial,
}

/// Configuration of one sharded run.
#[derive(Debug, Clone, Copy)]
pub struct ShardConfig {
    /// Number of shards (`>= 1`).
    pub shards: usize,
    /// Minimum cross-shard lookahead in ps (`>= 1`); in SHRIMP, the mesh's
    /// injection + ejection transceiver crossings plus one router hop.
    pub lookahead: Time,
    /// Threaded or (cfg-gated) serial execution.
    pub mode: ExecMode,
    /// Record a [`WindowRecord`] per window (for the safety-horizon property
    /// tests). Disables the `shards == 1` fast path so windows exist.
    pub observe_windows: bool,
    /// Simulated time every shard's clock starts at (0 for a fresh run).
    ///
    /// A run restored from a checkpoint sets this to the checkpoint's
    /// quiesce time so the resumed timeline continues where the captured
    /// one stopped, at any shard count.
    pub start: Time,
}

impl ShardConfig {
    /// A threaded run with `shards` shards and `lookahead` ps of slack.
    pub fn new(shards: usize, lookahead: Time) -> Self {
        ShardConfig {
            shards,
            lookahead,
            mode: ExecMode::default(),
            observe_windows: false,
            start: 0,
        }
    }
}

/// What one shard did within one window (observability for tests).
#[derive(Debug, Clone, Copy)]
pub struct WindowShard {
    /// Simulated time before the window ran.
    pub before: Time,
    /// Simulated time after the window ran (`< horizon`).
    pub after: Time,
    /// Executor events the window processed.
    pub fired: u64,
    /// Earliest arrival among cross-shard messages sent this window
    /// (`>= horizon` when present — the lookahead guarantee).
    pub sent_min_arrival: Option<Time>,
}

/// One synchronization window of an observed run.
#[derive(Debug, Clone)]
pub struct WindowRecord {
    /// The global safe horizon: every shard ran events strictly before it.
    pub horizon: Time,
    /// Per-shard window activity, indexed by shard.
    pub shards: Vec<WindowShard>,
}

/// The result of a sharded run.
#[derive(Debug)]
pub struct ShardOutcome<R> {
    /// Each shard's harvest, indexed by shard.
    pub results: Vec<R>,
    /// Final simulated time: the maximum over shards, which equals the
    /// single-`Sim` completion time of the same program.
    pub elapsed: Time,
    /// Total executor events across shards (polls + timer fires).
    pub events: u64,
    /// Synchronization windows executed (0 on the `shards == 1` fast path).
    pub windows: u64,
    /// Per-window activity when [`ShardConfig::observe_windows`] was set.
    pub window_log: Option<Vec<WindowRecord>>,
}

/// A shard's world-building closure: runs on the shard's thread, spawns the
/// shard's processes on `ctx.sim()`, registers `ctx.on_message(..)`, and
/// returns the harvest closure invoked after the run completes.
pub type Builder<M, R> = Box<dyn FnOnce(&ShardCtx<M>) -> Box<dyn FnOnce() -> R> + Send>;

/// The end-of-run closures a [`PhasedBuilder`] returns.
///
/// Models that need an explicit teardown between "the program is done" and
/// "the simulation is quiescent" — the SHRIMP cluster closes NIC ingress
/// and notification queues so receiver loops exit — cannot express it with
/// [`Builder`] alone: on one `Sim` the classic shape is `run → shutdown →
/// run`, and under windows the shutdown must happen at a *global* barrier,
/// otherwise one shard would close its queues while another could still
/// send to it.
pub struct ShardPlan<R> {
    /// Runs on the shard's thread at the global drain boundary: the first
    /// barrier at which every shard is exhausted (no timers, nothing in
    /// flight). Close queues and stop engines here.
    pub shutdown: Box<dyn FnOnce()>,
    /// Runs after final quiescence (everything `shutdown` woke has drained);
    /// its return value is the shard's result.
    pub harvest: Box<dyn FnOnce() -> R>,
}

/// A shard builder with an explicit shutdown phase; see [`ShardPlan`].
pub type PhasedBuilder<M, R> = Box<dyn FnOnce(&ShardCtx<M>) -> ShardPlan<R> + Send>;

// ---------------------------------------------------------------------------
// The window protocol
// ---------------------------------------------------------------------------

/// What a shard publishes at each barrier: its earliest pending event and
/// the earliest arrival it sent cross-shard during the step.
type Report = [Option<Time>; 2];

/// Computes the next global safe horizon from the barrier reports. `None`
/// means the simulation is exhausted (no timers anywhere, nothing in
/// flight).
fn next_horizon(reports: impl IntoIterator<Item = Report>, lookahead: Time) -> Option<Time> {
    let earliest = reports.into_iter().flatten().flatten().min();
    earliest.map(|m| m.saturating_add(lookahead))
}

/// Runs `builders` (one per shard) to completion under the conservative
/// window protocol and returns every shard's harvest.
///
/// # Panics
///
/// Panics when `cfg.shards == 0`, `cfg.lookahead == 0`, the builder count
/// differs from the shard count, or a shard violates the send contract.
pub fn run_sharded<M, R>(cfg: &ShardConfig, builders: Vec<Builder<M, R>>) -> ShardOutcome<R>
where
    M: Send + 'static,
    R: Send + 'static,
{
    run_sharded_phased(
        cfg,
        builders
            .into_iter()
            .map(|b| {
                let phased: PhasedBuilder<M, R> = Box::new(move |ctx| ShardPlan {
                    shutdown: Box::new(|| {}),
                    harvest: b(ctx),
                });
                phased
            })
            .collect(),
    )
}

/// [`run_sharded`] with an explicit shutdown phase: runs windows until the
/// whole simulation is exhausted, executes every shard's
/// [`ShardPlan::shutdown`] at that global barrier, resumes windows until
/// whatever shutdown woke has drained, then harvests. With a no-op
/// shutdown this is exactly [`run_sharded`]; at one shard it degenerates
/// to the classic `build → run → shutdown → run → harvest` shape.
///
/// # Panics
///
/// Same contract as [`run_sharded`]. A panic on any shard is re-raised on
/// the caller, with its original payload, once every shard has stopped.
pub fn run_sharded_phased<M, R>(
    cfg: &ShardConfig,
    builders: Vec<PhasedBuilder<M, R>>,
) -> ShardOutcome<R>
where
    M: Send + 'static,
    R: Send + 'static,
{
    assert!(cfg.shards >= 1, "a sharded run needs at least one shard");
    assert!(cfg.lookahead >= 1, "lookahead must be positive");
    assert_eq!(builders.len(), cfg.shards, "one builder per shard");

    // Degenerate case: one shard is exactly today's executor — build, run,
    // shut down, drain, harvest; no windows. (Kept off under observation so
    // window-protocol properties can be probed at any width.)
    if cfg.shards == 1 && !cfg.observe_windows {
        let builder = builders.into_iter().next().unwrap();
        let mut run = ShardRun::build(0, cfg, Arc::new(Fabric::new(1)), builder);
        let elapsed = run.core.sim.run();
        run.shutdown.take().expect("a built shard has its shutdown")();
        run.core.sim.run();
        return ShardOutcome {
            elapsed,
            ..run.finish()
        };
    }

    match cfg.mode {
        ExecMode::Threaded => run_threaded(cfg, builders),
        #[cfg(any(test, feature = "serial-shards"))]
        ExecMode::Serial => run_serial(cfg, builders),
    }
}

/// One shard's side of the window protocol. The threaded runner drives one
/// per thread with a barrier between steps, the serial oracle all of them
/// on one thread in shard order; both feed every shard the same horizons.
struct ShardRun<M, R> {
    core: Rc<ShardCore<M>>,
    /// Taken at the drain step.
    shutdown: Option<Box<dyn FnOnce()>>,
    harvest: Box<dyn FnOnce() -> R>,
    windows: u64,
    /// This shard's column of the window log, when observing.
    log: Option<Vec<WindowRecord>>,
}

impl<M: 'static, R> ShardRun<M, R> {
    /// Builds shard `shard`'s world: protocol step 0.
    fn build(
        shard: usize,
        cfg: &ShardConfig,
        fabric: Arc<Fabric<M>>,
        builder: PhasedBuilder<M, R>,
    ) -> Self {
        let core = Rc::new(ShardCore {
            shard,
            shards: cfg.shards,
            lookahead: cfg.lookahead,
            sim: Sim::new_at(cfg.start),
            fabric,
            handler: RefCell::new(None),
            edge_seq: RefCell::new(vec![0; cfg.shards]),
            sent_min: Cell::new(None),
            parity: Cell::new(0),
            batch: RefCell::new(Vec::new()),
        });
        let ShardPlan { shutdown, harvest } = builder(&ShardCtx {
            core: Rc::clone(&core),
        });
        ShardRun {
            core,
            shutdown: Some(shutdown),
            harvest,
            windows: 0,
            log: cfg.observe_windows.then(Vec::new),
        }
    }

    /// Runs the step every shard derived from the last barrier's reports: a
    /// window up to `horizon`, or at the first exhaustion the drain step
    /// that runs [`ShardPlan::shutdown`]. Returns `None` at the second
    /// exhaustion, when the run is over.
    fn step(&mut self, horizon: Option<Time>) -> Option<Report> {
        if horizon.is_none() && self.shutdown.is_none() {
            return None;
        }
        let core = &self.core;
        core.begin_step();
        match horizon {
            Some(horizon) => {
                let (before, events) = (core.sim.now(), core.sim.events());
                core.sim.run_for(horizon - 1);
                self.windows += 1;
                if let Some(log) = self.log.as_mut() {
                    let shards = vec![WindowShard {
                        before,
                        after: core.sim.now(),
                        fired: core.sim.events() - events,
                        sent_min_arrival: core.sent_min.get(),
                    }];
                    log.push(WindowRecord { horizon, shards });
                }
            }
            // Global drain boundary: everything is exhausted, so no shard
            // can still send to a queue another shard is about to close.
            None => self.shutdown.take().expect("checked above")(),
        }
        Some([core.pending(), core.sent_min.take()])
    }

    /// This shard's share of the run's outcome.
    fn finish(self) -> ShardOutcome<R> {
        ShardOutcome {
            results: vec![(self.harvest)()],
            elapsed: self.core.sim.now(),
            events: self.core.sim.events(),
            windows: self.windows,
            window_log: self.log,
        }
    }
}

/// Merges the shards' shares, given in shard order, into the run's outcome.
fn merge<R>(shares: impl IntoIterator<Item = ShardOutcome<R>>) -> ShardOutcome<R> {
    let merged = shares.into_iter().reduce(|mut all, share| {
        all.results.extend(share.results);
        all.elapsed = all.elapsed.max(share.elapsed);
        all.events += share.events;
        if let (Some(log), Some(column)) = (all.window_log.as_mut(), share.window_log) {
            for (record, cell) in log.iter_mut().zip(column) {
                record.shards.extend(cell.shards);
            }
        }
        all
    });
    merged.expect("a run has at least one shard")
}

/// A barrier waiter's bounded spin before it parks: a few microseconds,
/// about one short window, so waiting on a peer mid-window rarely pays for
/// a park/unpark round trip.
const SPIN_ITERS: u32 = 4096;

/// One shard's barrier [`Report`] per step parity, `u64::MAX` standing for
/// `None` (a timer at `Time::MAX` could never fire anyway: its horizon
/// saturates), on a cache line of its own.
#[derive(Default)]
#[repr(align(64))]
struct Slot([[AtomicU64; 2]; 2]);

impl Slot {
    // Relaxed suffices: a slot is written before its owner arrives at the
    // barrier and read after the reader leaves it; the barrier orders both.
    fn store(&self, parity: usize, report: Report) {
        for (cell, value) in self.0[parity].iter().zip(report) {
            cell.store(value.unwrap_or(u64::MAX), Ordering::Relaxed);
        }
    }

    fn load(&self, parity: usize) -> Report {
        self.0[parity]
            .each_ref()
            .map(|cell| Some(cell.load(Ordering::Relaxed)).filter(|&t| t != u64::MAX))
    }
}

/// The coordinator-free barrier of one threaded run: an arrival counter and
/// a generation word.
///
/// Memory ordering: every arrival is an `AcqRel` `fetch_add`, so the last
/// arriver acquires all that each shard wrote before arriving (its report
/// slot, its edge-queue pushes, the poison flag); it publishes them with a
/// `Release` bump of `generation`, which waiters read with `Acquire`.
struct Barrier {
    arrived: AtomicUsize,
    generation: AtomicU64,
    /// Set by a shard that panicked. Every shard that stops, it included,
    /// still arrives once without waiting, so no peer waits for it.
    poisoned: AtomicBool,
    /// Spin before parking only when each shard can hold a core of its own;
    /// otherwise a spinning waiter takes the time slice its peer needs.
    spin: bool,
    /// Each shard's thread, registered at its first arrival, so the last
    /// arriver can unpark them all.
    threads: Vec<OnceLock<Thread>>,
}

impl Barrier {
    fn new(shards: usize) -> Self {
        Barrier {
            arrived: AtomicUsize::new(0),
            generation: AtomicU64::new(0),
            poisoned: AtomicBool::new(false),
            spin: thread::available_parallelism().is_ok_and(|p| p.get() >= shards),
            threads: (0..shards).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Counts one arrival. The last of all shards resets the count for the
    /// next barrier, bumps the generation and unparks everyone else.
    fn arrive(&self, shard: usize) {
        self.threads[shard].get_or_init(thread::current);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 < self.threads.len() {
            return;
        }
        self.arrived.store(0, Ordering::Relaxed);
        self.generation.fetch_add(1, Ordering::Release);
        for (other, t) in self.threads.iter().enumerate() {
            if other != shard {
                t.get().expect("every arrived shard registered").unpark();
            }
        }
    }

    /// Arrives and waits for every other shard. `false` when a shard
    /// panicked and the run must stop.
    fn wait(&self, shard: usize) -> bool {
        // Read before arriving: it cannot move until this shard arrives.
        let generation = self.generation.load(Ordering::Acquire);
        self.arrive(shard);
        let mut spins = if self.spin { SPIN_ITERS } else { 0 };
        while self.generation.load(Ordering::Acquire) == generation {
            if spins > 0 {
                spins -= 1;
                std::hint::spin_loop();
            } else {
                // A stale or spurious wake-up just re-checks the generation.
                thread::park();
            }
        }
        !self.poisoned.load(Ordering::Relaxed)
    }
}

/// Shard 0 runs on the calling thread, shards `1..n` on scoped threads.
fn run_threaded<M, R>(cfg: &ShardConfig, mut builders: Vec<PhasedBuilder<M, R>>) -> ShardOutcome<R>
where
    M: Send + 'static,
    R: Send + 'static,
{
    let fabric = Arc::new(Fabric::new(cfg.shards));
    let barrier = Barrier::new(cfg.shards);
    let slots: Vec<Slot> = (0..cfg.shards).map(|_| Slot::default()).collect();
    // The first panicking shard's payload, re-raised once every shard has
    // stopped (`thread::scope` would replace it with a generic message).
    let died = Mutex::new(None);
    // One shard's whole run: build, steps separated by the barrier, harvest.
    // `None` when this or another shard panicked.
    let shard_main = |shard: usize, builder: PhasedBuilder<M, R>| {
        let body = AssertUnwindSafe(|| {
            let mut run = ShardRun::build(shard, cfg, Arc::clone(&fabric), builder);
            // Sends made while building are reported after the first window.
            slots[shard].store(0, [run.core.pending(), None]);
            loop {
                if !barrier.wait(shard) {
                    return None;
                }
                let parity = run.core.parity.get();
                let horizon = next_horizon(slots.iter().map(|s| s.load(parity)), cfg.lookahead);
                match run.step(horizon) {
                    Some(report) => slots[shard].store(run.core.parity.get(), report),
                    None => return Some(run.finish()),
                }
            }
        });
        let share = catch_unwind(body).unwrap_or_else(|payload| {
            died.lock()
                .expect("nothing panics while holding the payload lock")
                .get_or_insert(payload);
            barrier.poisoned.store(true, Ordering::Relaxed);
            None
        });
        // A stopping shard, the one that panicked or one that saw the flag,
        // arrives once more without waiting: a peer that read the flag clear
        // may already wait at the next barrier.
        if share.is_none() {
            barrier.arrive(shard);
        }
        share
    };
    let first = builders.remove(0);
    let shares: Option<Vec<_>> = thread::scope(|scope| {
        let shard_main = &shard_main;
        let spawned: Vec<_> = builders
            .into_iter()
            .enumerate()
            .map(|(i, builder)| scope.spawn(move || shard_main(i + 1, builder)))
            .collect();
        let first = shard_main(0, first);
        let rest = spawned.into_iter().map(|h| h.join().expect("caught there"));
        std::iter::once(first).chain(rest).collect()
    });
    if let Some(payload) = died.into_inner().expect("payload lock") {
        resume_unwind(payload);
    }
    merge(shares.expect("a shard stopped with neither an outcome nor a panic"))
}

/// The serial oracle: identical protocol, every shard on this thread,
/// steps replayed in shard order.
#[cfg(any(test, feature = "serial-shards"))]
fn run_serial<M, R>(cfg: &ShardConfig, builders: Vec<PhasedBuilder<M, R>>) -> ShardOutcome<R>
where
    M: Send + 'static,
    R: Send + 'static,
{
    let fabric = Arc::new(Fabric::new(cfg.shards));
    let mut runs: Vec<ShardRun<M, R>> = builders
        .into_iter()
        .enumerate()
        .map(|(shard, b)| ShardRun::build(shard, cfg, Arc::clone(&fabric), b))
        .collect();
    let mut reports: Vec<Report> = runs.iter().map(|r| [r.core.pending(), None]).collect();
    // Every shard agrees on each step, so all of them stop at the same one.
    loop {
        let horizon = next_horizon(reports.iter().copied(), cfg.lookahead);
        match runs.iter_mut().map(|r| r.step(horizon)).collect() {
            Some(next) => reports = next,
            None => break,
        }
    }
    merge(runs.into_iter().map(ShardRun::finish))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::Queue;
    use crate::time::ns;

    /// A token ring: shard 0 injects a hop counter; each shard forwards it
    /// to `(shard + 1) % n` one lookahead (plus a stagger) ahead, until
    /// `steps` hops have happened. Harvest = hops this shard saw.
    fn ring_builders(n: usize, lookahead: Time, steps: u32) -> Vec<Builder<u32, u64>> {
        (0..n)
            .map(|shard| {
                let b: Builder<u32, u64> = Box::new(move |ctx: &ShardCtx<u32>| {
                    let mailbox: Queue<u32> = Queue::new();
                    let inbox = mailbox.clone();
                    ctx.on_message(move |_at, hop| inbox.send(hop));
                    let tx = ctx.sender();
                    let sim = ctx.sim().clone();
                    let seen = Rc::new(Cell::new(0u64));
                    let seen2 = Rc::clone(&seen);
                    if shard == 0 {
                        tx.send(1 % n, lookahead, 0);
                    }
                    ctx.sim().spawn(async move {
                        while let Some(hop) = mailbox.recv().await {
                            seen2.set(seen2.get() + 1);
                            if hop + 1 < steps {
                                let next = (tx.shard() + 1) % n;
                                tx.send(next, sim.now() + lookahead + (hop as Time % 3), hop + 1);
                            } else {
                                break;
                            }
                        }
                    });
                    Box::new(move || seen.get())
                });
                b
            })
            .collect()
    }

    #[test]
    fn single_shard_fast_path_runs_without_windows() {
        let out = run_sharded(&ShardConfig::new(1, ns(1)), ring_builders(1, ns(1), 10));
        assert_eq!(out.windows, 0);
        assert_eq!(out.results.iter().sum::<u64>(), 10);
    }

    #[test]
    fn ring_delivers_every_hop_at_any_width() {
        let steps = 64;
        let mut elapsed = Vec::new();
        for n in [1usize, 2, 3, 4] {
            let out = run_sharded(&ShardConfig::new(n, ns(5)), ring_builders(n, ns(5), steps));
            assert_eq!(
                out.results.iter().sum::<u64>(),
                steps as u64,
                "{n} shards dropped hops"
            );
            elapsed.push(out.elapsed);
        }
        // The simulated schedule is the same program at every width.
        assert!(
            elapsed.windows(2).all(|w| w[0] == w[1]),
            "elapsed varied by shard count: {elapsed:?}"
        );
    }

    /// Window for window, at a width where barrier waiters may spin and at
    /// one past the host's cores, where spinning is off and every wait parks.
    #[test]
    fn threaded_and_serial_agree_exactly() {
        let cores = thread::available_parallelism().map_or(1, |p| p.get());
        assert!(
            !Barrier::new(cores + 2).spin,
            "past the core count waits park"
        );
        for n in [4, cores + 2] {
            let mk = |mode| {
                let mut cfg = ShardConfig::new(n, ns(3));
                cfg.mode = mode;
                cfg.observe_windows = true;
                run_sharded(&cfg, ring_builders(n, ns(3), 48))
            };
            let threaded = mk(ExecMode::Threaded);
            let serial = mk(ExecMode::Serial);
            assert_eq!(
                threaded.results.iter().sum::<u64>(),
                48,
                "{n} shards dropped hops"
            );
            assert_eq!(threaded.results, serial.results);
            assert_eq!(threaded.elapsed, serial.elapsed);
            assert_eq!(threaded.events, serial.events);
            assert_eq!(threaded.windows, serial.windows);
            let (tl, sl) = (
                threaded.window_log.as_ref().unwrap(),
                serial.window_log.as_ref().unwrap(),
            );
            assert_eq!(tl.len(), sl.len());
            for (t, s) in tl.iter().zip(sl) {
                assert_eq!(t.horizon, s.horizon);
                for (a, b) in t.shards.iter().zip(&s.shards) {
                    assert_eq!((a.before, a.after, a.fired), (b.before, b.after, b.fired));
                }
            }
        }
    }

    /// Every shard sleeps one lookahead per window; shard `victim` panics
    /// in its sixth window while its peers, with nothing else to do, wait
    /// at the barrier. Without the poison flag the run would never end.
    fn run_with_panicking_shard(n: usize, victim: usize) {
        let builders: Vec<Builder<u32, ()>> = (0..n)
            .map(|shard| {
                let b: Builder<u32, ()> = Box::new(move |ctx: &ShardCtx<u32>| {
                    let (sim, lookahead) = (ctx.sim().clone(), ctx.lookahead());
                    ctx.sim().spawn(async move {
                        for window in 0..10_000 {
                            sim.sleep(lookahead).await;
                            if shard == victim && window == 5 {
                                panic!("deliberate failure on shard {shard}");
                            }
                        }
                    });
                    Box::new(|| ())
                });
                b
            })
            .collect();
        run_sharded(&ShardConfig::new(n, ns(1)), builders);
    }

    #[test]
    #[should_panic(expected = "deliberate failure on shard 1")]
    fn a_panicking_last_shard_stops_two_shards() {
        run_with_panicking_shard(2, 1);
    }

    #[test]
    #[should_panic(expected = "deliberate failure on shard 3")]
    fn a_panicking_last_shard_stops_four_shards() {
        run_with_panicking_shard(4, 3);
    }

    #[test]
    #[should_panic(expected = "deliberate failure on shard 0")]
    fn a_panicking_caller_shard_stops_two_shards() {
        run_with_panicking_shard(2, 0);
    }

    #[test]
    #[should_panic(expected = "deliberate failure on shard 0")]
    fn a_panicking_caller_shard_stops_four_shards() {
        run_with_panicking_shard(4, 0);
    }

    #[test]
    fn windows_respect_the_safe_horizon() {
        let mut cfg = ShardConfig::new(3, ns(7));
        cfg.observe_windows = true;
        let out = run_sharded(&cfg, ring_builders(3, ns(7), 40));
        let log = out.window_log.as_ref().unwrap();
        assert!(!log.is_empty());
        let mut prev_horizon = 0;
        for rec in log {
            assert!(rec.horizon > prev_horizon, "horizons must advance");
            prev_horizon = rec.horizon;
            for w in &rec.shards {
                assert!(w.after < rec.horizon, "shard ran past the safe horizon");
                if let Some(sent) = w.sent_min_arrival {
                    assert!(sent >= rec.horizon, "lookahead guarantee violated");
                }
            }
        }
    }

    /// Like `ring_builders`, but the receiver loops never break on their
    /// own: only the shutdown closure closing the mailbox lets them exit,
    /// so completion depends on the drain barrier firing exactly once,
    /// globally, after exhaustion.
    fn phased_ring_builders(n: usize, lookahead: Time, steps: u32) -> Vec<PhasedBuilder<u32, u64>> {
        (0..n)
            .map(|shard| {
                let b: PhasedBuilder<u32, u64> = Box::new(move |ctx: &ShardCtx<u32>| {
                    let mailbox: Queue<u32> = Queue::new();
                    let inbox = mailbox.clone();
                    ctx.on_message(move |_at, hop| inbox.send(hop));
                    let tx = ctx.sender();
                    let sim = ctx.sim().clone();
                    let seen = Rc::new(Cell::new(0u64));
                    let seen2 = Rc::clone(&seen);
                    if shard == 0 {
                        tx.send(1 % n, lookahead, 0);
                    }
                    let to_close = mailbox.clone();
                    ctx.sim().spawn(async move {
                        while let Some(hop) = mailbox.recv().await {
                            seen2.set(seen2.get() + 1);
                            if hop + 1 < steps {
                                let next = (tx.shard() + 1) % n;
                                tx.send(next, sim.now() + lookahead, hop + 1);
                            }
                        }
                    });
                    ShardPlan {
                        shutdown: Box::new(move || to_close.close()),
                        harvest: Box::new(move || seen.get()),
                    }
                });
                b
            })
            .collect()
    }

    #[test]
    fn phased_shutdown_drains_open_receivers_at_every_width() {
        let steps = 32;
        let mut elapsed = Vec::new();
        for n in [1usize, 2, 4] {
            let out = run_sharded_phased(
                &ShardConfig::new(n, ns(5)),
                phased_ring_builders(n, ns(5), steps),
            );
            assert_eq!(
                out.results.iter().sum::<u64>(),
                steps as u64,
                "{n} shards dropped hops"
            );
            elapsed.push(out.elapsed);
        }
        assert!(
            elapsed.windows(2).all(|w| w[0] == w[1]),
            "elapsed varied by shard count: {elapsed:?}"
        );
    }

    #[test]
    fn phased_threaded_and_serial_agree_exactly() {
        let mk = |mode| {
            let mut cfg = ShardConfig::new(4, ns(3));
            cfg.mode = mode;
            run_sharded_phased(&cfg, phased_ring_builders(4, ns(3), 48))
        };
        let threaded = mk(ExecMode::Threaded);
        let serial = mk(ExecMode::Serial);
        assert_eq!(threaded.results, serial.results);
        assert_eq!(threaded.elapsed, serial.elapsed);
        assert_eq!(threaded.events, serial.events);
        assert_eq!(threaded.windows, serial.windows);
    }

    #[test]
    fn shards_resolve_fixed_wins_auto_follows() {
        assert_eq!(Shards::Auto.resolve(4), 4);
        assert_eq!(Shards::Auto.resolve(0), 1);
        assert_eq!(Shards::Fixed(2).resolve(8), 2);
        assert_eq!(Shards::default(), Shards::Auto);
    }

    #[test]
    #[should_panic(expected = "violates lookahead")]
    fn short_cross_shard_send_panics() {
        let builders: Vec<Builder<u32, ()>> = (0..2)
            .map(|shard| {
                let b: Builder<u32, ()> = Box::new(move |ctx: &ShardCtx<u32>| {
                    ctx.on_message(|_, _| {});
                    if shard == 0 {
                        // Arrival below the configured ns(10) lookahead.
                        ctx.send(1, ns(2), 0);
                    }
                    Box::new(|| ())
                });
                b
            })
            .collect();
        run_sharded(&ShardConfig::new(2, ns(10)), builders);
    }
}
