//! Conservative parallel discrete-event execution over sharded [`Sim`]s.
//!
//! The single-threaded executor in [`crate::executor`] is the unit of
//! determinism: one [`Sim`], one timer wheel, one ready queue, strict
//! `(time, seq)` order. This module composes *several* of those units into
//! one logical simulation, Chandy–Misra style, without giving that
//! determinism up:
//!
//! * Every **shard** owns a full `Sim` (its own wheel and ready queue) built
//!   and run on its own OS thread — `Sim` stays `!Send`; only the shard's
//!   *builder closure* and the messages cross threads.
//! * Shards interact **only** through timestamped messages pushed onto
//!   lock-free per-edge queues (`EdgeQueue`); in the SHRIMP machine the
//!   routing backplane is the one such channel, and its link + transceiver
//!   latency is the synchronization slack.
//! * Execution proceeds in **windows**: with `m` the earliest pending event
//!   anywhere (local timers or in-flight messages) and `L` the minimum
//!   cross-shard lookahead, every event strictly before the global safe
//!   horizon `H = m + L` is causally independent of anything another shard
//!   has yet to do — any message sent at `t ≥ m` arrives no earlier than
//!   `t + L ≥ H`. Each shard runs `run_for(H - 1)`, the coordinator
//!   barriers, in-flight messages are merged, and the next horizon is
//!   derived. No null messages are exchanged; the barrier *is* the
//!   conservative protocol.
//! * **Determinism**: inbound messages are merged into a shard's wheel in
//!   `(arrival, source shard, per-edge seq)` order, which is a pure function
//!   of the simulated program — never of thread scheduling — so a sharded
//!   run is bit-reproducible, and `ExecMode::Serial` (the cfg-gated
//!   single-thread oracle, compiled like `legacy-sched`) replays the exact
//!   same schedule for differential testing.
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
use std::ptr;
use std::rc::Rc;
use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::{mpsc, Arc};

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
/// The producer (source shard, during its window) pushes with a CAS loop;
/// the consumer (destination shard, at the barrier) takes the whole list
/// with one atomic swap and restores FIFO order by reversing. The window
/// protocol already separates the phases — producers are parked at the
/// barrier while consumers merge — but the queue is safe under full
/// concurrency regardless.
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

    /// Takes every queued envelope, oldest first.
    fn drain(&self) -> Vec<Envelope<M>> {
        let mut head = self.head.swap(ptr::null_mut(), Ordering::AcqRel);
        let mut out = Vec::new();
        while !head.is_null() {
            // Safety: nodes are only produced by `push` and ownership of the
            // whole chain transferred by the swap above.
            let node = unsafe { Box::from_raw(head) };
            head = node.next;
            out.push(node.env);
        }
        out.reverse();
        out
    }
}

impl<M> Drop for EdgeQueue<M> {
    fn drop(&mut self) {
        self.drain();
    }
}

/// The full mesh of directed edges, indexed `src * shards + dst`.
struct Fabric<M> {
    shards: usize,
    edges: Vec<EdgeQueue<M>>,
}

impl<M> Fabric<M> {
    fn new(shards: usize) -> Self {
        Fabric {
            shards,
            edges: (0..shards * shards).map(|_| EdgeQueue::new()).collect(),
        }
    }

    fn edge(&self, src: usize, dst: usize) -> &EdgeQueue<M> {
        &self.edges[src * self.shards + dst]
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
}

impl<M: 'static> ShardCore<M> {
    fn new(
        shard: usize,
        shards: usize,
        lookahead: Time,
        start: Time,
        fabric: Arc<Fabric<M>>,
    ) -> Rc<Self> {
        Rc::new(ShardCore {
            shard,
            shards,
            lookahead,
            sim: Sim::new_at(start),
            fabric,
            handler: RefCell::new(None),
            edge_seq: RefCell::new(vec![0; shards]),
            sent_min: Cell::new(None),
        })
    }

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
        self.fabric.edge(self.shard, dst).push(Envelope {
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

    /// Drains every inbound edge and merges the messages into the wheel in
    /// `(arrival, src shard, per-edge seq)` order — the deterministic merge
    /// that keeps `(time, seq)` event order independent of thread timing.
    fn merge_inbound(self: &Rc<Self>) {
        let mut batch: Vec<Envelope<M>> = Vec::new();
        for src in 0..self.shards {
            if src != self.shard {
                batch.extend(self.fabric.edge(src, self.shard).drain());
            }
        }
        batch.sort_unstable_by_key(|e| (e.arrival, e.src, e.seq));
        for env in batch {
            self.dispatch(env.arrival, env.msg);
        }
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
// The coordinator
// ---------------------------------------------------------------------------

/// What a shard reports at each barrier.
struct Reply {
    pending: Option<Time>,
    sent_min: Option<Time>,
    window: Option<WindowShard>,
}

enum Cmd {
    Window { horizon: Time },
    Drain,
    Finish,
}

/// Computes the next global safe horizon from the barrier replies. `None`
/// means the simulation is exhausted (no timers anywhere, nothing in
/// flight).
fn next_horizon(pending: &[Option<Time>], sent: &[Option<Time>], lookahead: Time) -> Option<Time> {
    pending
        .iter()
        .chain(sent.iter())
        .flatten()
        .min()
        .map(|&m| m.saturating_add(lookahead))
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
/// Same contract as [`run_sharded`].
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
        let fabric = Arc::new(Fabric::new(1));
        let ctx = ShardCtx {
            core: ShardCore::new(0, 1, cfg.lookahead, cfg.start, fabric),
        };
        let ShardPlan { shutdown, harvest } = builders.into_iter().next().unwrap()(&ctx);
        let elapsed = ctx.core.sim.run();
        shutdown();
        ctx.core.sim.run();
        return ShardOutcome {
            results: vec![harvest()],
            elapsed,
            events: ctx.core.sim.events(),
            windows: 0,
            window_log: None,
        };
    }

    match cfg.mode {
        ExecMode::Threaded => run_threaded(cfg, builders),
        #[cfg(any(test, feature = "serial-shards"))]
        ExecMode::Serial => run_serial(cfg, builders),
    }
}

/// One shard's window step: merge inbound, run to the horizon, report.
fn shard_window<M: 'static>(core: &Rc<ShardCore<M>>, horizon: Time, observe: bool) -> Reply {
    core.merge_inbound();
    let before = core.sim.now();
    let events_before = core.sim.events();
    core.sim.run_for(horizon - 1);
    let window = observe.then(|| WindowShard {
        before,
        after: core.sim.now(),
        fired: core.sim.events() - events_before,
        sent_min_arrival: core.sent_min.get(),
    });
    Reply {
        pending: core.pending(),
        sent_min: core.sent_min.take(),
        window,
    }
}

fn run_threaded<M, R>(cfg: &ShardConfig, builders: Vec<PhasedBuilder<M, R>>) -> ShardOutcome<R>
where
    M: Send + 'static,
    R: Send + 'static,
{
    let n = cfg.shards;
    let fabric = Arc::new(Fabric::new(n));
    let observe = cfg.observe_windows;
    let lookahead = cfg.lookahead;
    let start = cfg.start;

    let mut outcome = None;
    // The first dead shard's panic payload, re-raised on the caller after
    // the scope has wound everything down (`thread::scope`'s own
    // propagation would wrap it in a generic "a scoped thread panicked").
    let died: std::sync::Mutex<Option<Box<dyn std::any::Any + Send>>> = std::sync::Mutex::new(None);
    std::thread::scope(|scope| {
        // All channel endpoints are owned by this closure, so every exit
        // path (including the early returns below) drops them, unblocks any
        // surviving shard thread, and lets the scope join.
        //
        // A `None` reply marks a shard whose simulation panicked: the
        // coordinator unwinds cleanly, and the caller re-raises the shard's
        // original panic payload once the scope has joined.
        let (reply_tx, reply_rx) = mpsc::channel::<(usize, Option<Reply>)>();
        let (final_tx, final_rx) = mpsc::channel::<(usize, R, Time, u64)>();
        let mut cmd_txs = Vec::with_capacity(n);
        let mut cmd_rxs = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = mpsc::channel::<Cmd>();
            cmd_txs.push(tx);
            cmd_rxs.push(Some(rx));
        }

        for (shard, builder) in builders.into_iter().enumerate() {
            let fabric = Arc::clone(&fabric);
            let reply_tx = reply_tx.clone();
            let final_tx = final_tx.clone();
            let cmd_rx = cmd_rxs[shard].take().unwrap();
            let died = &died;
            scope.spawn(move || {
                let fail_tx = reply_tx.clone();
                let run = std::panic::AssertUnwindSafe(move || {
                    let core = ShardCore::new(shard, n, lookahead, start, fabric);
                    let ctx = ShardCtx {
                        core: Rc::clone(&core),
                    };
                    let ShardPlan { shutdown, harvest } = builder(&ctx);
                    let mut shutdown = Some(shutdown);
                    // Initial report: spawned processes are runnable at t = 0.
                    let _ = reply_tx.send((
                        shard,
                        Some(Reply {
                            pending: core.pending(),
                            sent_min: None,
                            window: None,
                        }),
                    ));
                    while let Ok(cmd) = cmd_rx.recv() {
                        match cmd {
                            Cmd::Window { horizon } => {
                                let reply = shard_window(&core, horizon, observe);
                                let _ = reply_tx.send((shard, Some(reply)));
                            }
                            Cmd::Drain => {
                                if let Some(f) = shutdown.take() {
                                    f();
                                }
                                let _ = reply_tx.send((
                                    shard,
                                    Some(Reply {
                                        pending: core.pending(),
                                        sent_min: core.sent_min.take(),
                                        window: None,
                                    }),
                                ));
                            }
                            Cmd::Finish => {
                                let _ = final_tx.send((
                                    shard,
                                    harvest(),
                                    core.sim.now(),
                                    core.sim.events(),
                                ));
                                break;
                            }
                        }
                    }
                });
                if let Err(payload) = std::panic::catch_unwind(run) {
                    died.lock().unwrap().get_or_insert(payload);
                    let _ = fail_tx.send((shard, None));
                }
            });
        }
        drop(reply_tx);
        drop(final_tx);

        // Coordinator (this thread): lockstep windows until exhaustion.
        // `collect` returns `None` when any shard died — the coordinator
        // then drops the command channels so the surviving shards unwind,
        // and the scope re-raises the dead shard's panic.
        let mut pending = vec![None; n];
        let mut sent = vec![None; n];
        let collect = |pending: &mut Vec<Option<Time>>, sent: &mut Vec<Option<Time>>| {
            let mut per_shard = Vec::new();
            for _ in 0..n {
                match reply_rx.recv() {
                    Ok((shard, Some(reply))) => {
                        pending[shard] = reply.pending;
                        sent[shard] = reply.sent_min;
                        if let Some(w) = reply.window {
                            per_shard.push((shard, w));
                        }
                    }
                    Ok((_, None)) | Err(_) => return None,
                }
            }
            per_shard.sort_by_key(|&(s, _)| s);
            Some(per_shard)
        };

        if collect(&mut pending, &mut sent).is_none() {
            return;
        }
        let mut windows = 0u64;
        let mut log = observe.then(Vec::new);
        let mut drained = false;
        loop {
            while let Some(horizon) = next_horizon(&pending, &sent, lookahead) {
                for tx in &cmd_txs {
                    let _ = tx.send(Cmd::Window { horizon });
                }
                let Some(per_shard) = collect(&mut pending, &mut sent) else {
                    return;
                };
                windows += 1;
                if let Some(log) = log.as_mut() {
                    log.push(WindowRecord {
                        horizon,
                        shards: per_shard.into_iter().map(|(_, w)| w).collect(),
                    });
                }
            }
            if drained {
                break;
            }
            // Global drain boundary: everything is exhausted, so no shard
            // can still send to a queue another shard is about to close.
            drained = true;
            for tx in &cmd_txs {
                let _ = tx.send(Cmd::Drain);
            }
            if collect(&mut pending, &mut sent).is_none() {
                return;
            }
        }
        for tx in &cmd_txs {
            let _ = tx.send(Cmd::Finish);
        }
        let mut finals = Vec::with_capacity(n);
        for _ in 0..n {
            match final_rx.recv() {
                Ok(f) => finals.push(f),
                Err(_) => return, // a shard died during harvest
            }
        }
        finals.sort_by_key(|&(s, ..)| s);
        let elapsed = finals.iter().map(|&(_, _, now, _)| now).max().unwrap_or(0);
        let events = finals.iter().map(|&(.., ev)| ev).sum();
        outcome = Some(ShardOutcome {
            results: finals.into_iter().map(|(_, r, ..)| r).collect(),
            elapsed,
            events,
            windows,
            window_log: log,
        });
    });
    if let Some(payload) = died.into_inner().unwrap() {
        std::panic::resume_unwind(payload);
    }
    outcome.expect("a shard exited without an outcome or a panic")
}

/// The serial oracle: identical protocol, every shard on this thread,
/// windows replayed in shard order.
#[cfg(any(test, feature = "serial-shards"))]
fn run_serial<M, R>(cfg: &ShardConfig, builders: Vec<PhasedBuilder<M, R>>) -> ShardOutcome<R>
where
    M: Send + 'static,
    R: Send + 'static,
{
    let n = cfg.shards;
    let fabric = Arc::new(Fabric::new(n));
    let mut cores = Vec::with_capacity(n);
    let mut shutdowns = Vec::with_capacity(n);
    let mut harvests = Vec::with_capacity(n);
    for (shard, builder) in builders.into_iter().enumerate() {
        let core = ShardCore::new(shard, n, cfg.lookahead, cfg.start, Arc::clone(&fabric));
        let ctx = ShardCtx {
            core: Rc::clone(&core),
        };
        let ShardPlan { shutdown, harvest } = builder(&ctx);
        shutdowns.push(shutdown);
        harvests.push(harvest);
        cores.push(core);
    }
    let mut pending: Vec<Option<Time>> = cores.iter().map(|c| c.pending()).collect();
    let mut sent: Vec<Option<Time>> = vec![None; n];
    let mut windows = 0u64;
    let mut log = cfg.observe_windows.then(Vec::new);
    let mut drained = false;
    loop {
        while let Some(horizon) = next_horizon(&pending, &sent, cfg.lookahead) {
            let mut per_shard = Vec::new();
            for (shard, core) in cores.iter().enumerate() {
                let reply = shard_window(core, horizon, cfg.observe_windows);
                pending[shard] = reply.pending;
                sent[shard] = reply.sent_min;
                if let Some(w) = reply.window {
                    per_shard.push(w);
                }
            }
            windows += 1;
            if let Some(log) = log.as_mut() {
                log.push(WindowRecord {
                    horizon,
                    shards: per_shard,
                });
            }
        }
        if drained {
            break;
        }
        drained = true;
        for (shard, shutdown) in shutdowns.drain(..).enumerate() {
            shutdown();
            pending[shard] = cores[shard].pending();
            sent[shard] = cores[shard].sent_min.take();
        }
    }
    let elapsed = cores.iter().map(|c| c.sim.now()).max().unwrap_or(0);
    let events = cores.iter().map(|c| c.sim.events()).sum();
    ShardOutcome {
        results: harvests.into_iter().map(|h| h()).collect(),
        elapsed,
        events,
        windows,
        window_log: log,
    }
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

    #[test]
    fn threaded_and_serial_agree_exactly() {
        let mk = |mode| {
            let mut cfg = ShardConfig::new(4, ns(3));
            cfg.mode = mode;
            cfg.observe_windows = true;
            run_sharded(&cfg, ring_builders(4, ns(3), 48))
        };
        let threaded = mk(ExecMode::Threaded);
        let serial = mk(ExecMode::Serial);
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
