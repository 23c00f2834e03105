//! Differential test of the threaded conservative-parallel executor.
//!
//! Three executions of the same randomized workload must agree on every
//! observable: the plain single-`Sim` fast path (`shards == 1` — today's
//! executor, the obviously-correct oracle), the serial round-robin window
//! executor (`ExecMode::Serial`, compiled in via the `serial-shards`
//! feature), and the threaded conservative executor. Agreement is checked
//! at the `(time, seq)` stream level: each node's send timeline must match
//! entry for entry, and each node's delivery timeline must match as a
//! per-instant multiset (two deliveries to one node at the same picosecond
//! are unordered by construction — the workload treats them
//! commutatively).
//!
//! Workloads come from `shrimp-testkit` choice sources, so failures replay
//! and shrink deterministically.

use std::cell::RefCell;
use std::rc::Rc;

use shrimp_sim::shard::{run_sharded, Builder, ExecMode, ShardConfig, ShardCtx};
use shrimp_sim::{rng::splitmix64, Time};
use shrimp_testkit::prop::*;
use shrimp_testkit::{prop_assert, prop_assert_eq, props};

/// One node's scripted schedule: per step, a sleep and a burst of sends.
#[derive(Debug, Clone)]
struct NodeOps {
    steps: Vec<StepOp>,
}

/// One compute/communicate step of a node.
#[derive(Debug, Clone)]
struct StepOp {
    /// Simulated ps slept before the step acts (at least 1).
    sleep: Time,
    /// `(dst node, extra arrival delay beyond the lookahead, tag)`.
    sends: Vec<(usize, Time, u64)>,
}

/// Contiguous node → shard assignment, as in `shrimp_core`'s sharded
/// cluster launch.
fn shard_of(node: usize, nodes: usize, shards: usize) -> usize {
    node * shards / nodes
}

/// Scripts a whole workload from a choice stream: `nodes` nodes, `steps`
/// steps each, up to `fanout` sends per step.
fn script(src: &mut Source, nodes: usize, steps: usize, fanout: usize) -> Vec<NodeOps> {
    (0..nodes)
        .map(|_| NodeOps {
            steps: (0..steps)
                .map(|_| StepOp {
                    sleep: 1 + src.draw_below(5000),
                    sends: (0..src.draw_below(fanout as u64 + 1))
                        .filter(|_| nodes > 1)
                        .map(|_| {
                            (
                                src.draw_below(nodes as u64) as usize,
                                src.draw_below(3000),
                                src.draw(),
                            )
                        })
                        .collect(),
                })
                .collect(),
        })
        .collect()
}

/// A message on the wire: `(src node, dst node, tag)`.
type Msg = (usize, usize, u64);

/// Everything one execution observed, normalized for comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Streams {
    /// Per node: `(send time, tag)` in program order.
    sends: Vec<Vec<(Time, u64)>>,
    /// Per node: `(arrival, src, tag)`, sorted (see module docs).
    deliveries: Vec<Vec<(Time, usize, u64)>>,
    elapsed: Time,
    events: u64,
}

/// Runs the scripted workload on `shards` shards in `mode` and collects
/// the per-node streams.
fn run_workload(ops: &[NodeOps], lookahead: Time, shards: usize, mode: ExecMode) -> Streams {
    let nodes = ops.len();
    type Logs = (Vec<(Time, u64)>, Vec<(Time, usize, u64)>);
    let builders: Vec<Builder<Msg, Vec<(usize, Logs)>>> = (0..shards)
        .map(|s| {
            let ops = ops.to_vec();
            Box::new(move |ctx: &ShardCtx<Msg>| {
                let owned: Vec<usize> = (0..nodes)
                    .filter(|&n| shard_of(n, nodes, ctx.shards()) == s)
                    .collect();
                let logs: Vec<Rc<RefCell<Logs>>> = owned
                    .iter()
                    .map(|_| Rc::new(RefCell::new((Vec::new(), Vec::new()))))
                    .collect();
                {
                    let logs = logs.clone();
                    let owned = owned.clone();
                    ctx.on_message(move |at, (src, dst, tag): Msg| {
                        let slot = owned.binary_search(&dst).expect("misrouted message");
                        logs[slot].borrow_mut().1.push((at, src, tag));
                    });
                }
                for (slot, &node) in owned.iter().enumerate() {
                    let script = ops[node].clone();
                    let log = Rc::clone(&logs[slot]);
                    let tx = ctx.sender();
                    let sim = ctx.sim().clone();
                    ctx.sim().spawn(async move {
                        for step in script.steps {
                            sim.sleep(step.sleep).await;
                            for (dst, delay, tag) in step.sends {
                                log.borrow_mut().0.push((sim.now(), tag));
                                let arrival = sim.now() + tx.lookahead() + delay;
                                tx.send(
                                    shard_of(dst, nodes, tx.shards()),
                                    arrival,
                                    (node, dst, tag),
                                );
                            }
                        }
                    });
                }
                let harvest: Box<dyn FnOnce() -> Vec<(usize, Logs)>> = Box::new(move || {
                    owned
                        .iter()
                        .zip(&logs)
                        .map(|(&n, l)| (n, l.borrow().clone()))
                        .collect()
                });
                harvest
            }) as Builder<Msg, Vec<(usize, Logs)>>
        })
        .collect();
    let cfg = ShardConfig {
        mode,
        ..ShardConfig::new(shards, lookahead)
    };
    let out = run_sharded(&cfg, builders);
    let mut sends = vec![Vec::new(); nodes];
    let mut deliveries = vec![Vec::new(); nodes];
    for shard in out.results {
        for (node, (s, d)) in shard {
            sends[node] = s;
            deliveries[node] = d;
        }
    }
    // Same-instant deliveries to one node are unordered; normalize.
    for d in &mut deliveries {
        d.sort_unstable();
    }
    Streams {
        sends,
        deliveries,
        elapsed: out.elapsed,
        events: out.events,
    }
}

/// The headline oracle run: 3 independent randomized workloads, each
/// executed on the single-`Sim` fast path and differentially on the serial
/// and threaded window executors at several widths. The summed event count
/// clears 24k.
#[test]
fn parallel_executors_match_the_single_sim_over_24k_events() {
    let mut total_events = 0;
    for seed in [0x5eed_0001u64, 0xdead_beef, 0x7777_1234] {
        let mut src = Source::record(seed);
        let ops = script(&mut src, 16, 170, 3);
        let lookahead = 1 + src.draw_below(500);
        let oracle = run_workload(&ops, lookahead, 1, ExecMode::Threaded);
        total_events += oracle.events;
        for shards in [2usize, 3, 4, 16] {
            let threaded = run_workload(&ops, lookahead, shards, ExecMode::Threaded);
            let serial = run_workload(&ops, lookahead, shards, ExecMode::Serial);
            assert_eq!(
                oracle, threaded,
                "threaded {shards}-shard streams diverged (seed {seed:#x})"
            );
            assert_eq!(
                oracle, serial,
                "serial {shards}-shard streams diverged (seed {seed:#x})"
            );
        }
    }
    assert!(
        total_events >= 24_000,
        "workload too small: {total_events} events"
    );
}

/// Derives a small scripted workload from a bare seed (for the shrinkable
/// properties, where the generator draws only scalars).
fn script_from_seed(seed: u64, nodes: usize, steps: usize) -> Vec<NodeOps> {
    let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
    let mut draw = move |below: u64| splitmix64(&mut state) % below.max(1);
    (0..nodes)
        .map(|_| NodeOps {
            steps: (0..steps)
                .map(|_| StepOp {
                    sleep: 1 + draw(2000),
                    sends: (0..draw(3))
                        .filter(|_| nodes > 1)
                        .map(|_| (draw(nodes as u64) as usize, draw(1000), draw(u64::MAX)))
                        .collect(),
                })
                .collect(),
        })
        .collect()
}

props! {
    cases = 24;

    /// Shrinkable differential: any small workload keeps the threaded and
    /// serial window executors in lock-step with the single-`Sim` oracle,
    /// at any legal shard count.
    fn sharded_streams_match_the_oracle(
        cfg in zip3(usize_in(1..9), usize_in(1..12), any_u64()),
        shard_pick in any_u64(),
        lookahead in u64_in(1..400),
    ) {
        let (nodes, steps, seed) = cfg;
        let shards = 1 + (shard_pick as usize) % nodes;
        let ops = script_from_seed(seed, nodes, steps);
        let oracle = run_workload(&ops, lookahead, 1, ExecMode::Threaded);
        let threaded = run_workload(&ops, lookahead, shards, ExecMode::Threaded);
        let serial = run_workload(&ops, lookahead, shards, ExecMode::Serial);
        prop_assert_eq!(&oracle, &threaded);
        prop_assert_eq!(&oracle, &serial);
    }

    /// The conservative safety property, over random topologies, seeds and
    /// shard assignments: within every window, no shard executes at or
    /// past the safe horizon, no cross-shard message lands before the
    /// horizon (lookahead is never violated), shard clocks never run
    /// backwards, and horizons strictly advance.
    fn windows_never_breach_the_safe_horizon(
        cfg in zip3(usize_in(2..10), usize_in(1..10), any_u64()),
        shard_pick in any_u64(),
        lookahead in u64_in(1..600),
    ) {
        let (nodes, steps, seed) = cfg;
        let shards = 1 + (shard_pick as usize) % nodes;
        let ops = script_from_seed(seed, nodes, steps);
        let cfg = ShardConfig {
            observe_windows: true,
            ..ShardConfig::new(shards, lookahead)
        };
        let nodes_total = ops.len();
        let builders: Vec<Builder<Msg, ()>> = (0..shards)
            .map(|s| {
                let ops = ops.clone();
                Box::new(move |ctx: &ShardCtx<Msg>| {
                    ctx.on_message(|_, _| {});
                    for node in
                        (0..nodes_total).filter(|&n| shard_of(n, nodes_total, ctx.shards()) == s)
                    {
                        let script = ops[node].clone();
                        let tx = ctx.sender();
                        let sim = ctx.sim().clone();
                        ctx.sim().spawn(async move {
                            for step in script.steps {
                                sim.sleep(step.sleep).await;
                                for (dst, delay, tag) in step.sends {
                                    let arrival = sim.now() + tx.lookahead() + delay;
                                    tx.send(
                                        shard_of(dst, nodes_total, tx.shards()),
                                        arrival,
                                        (node, dst, tag),
                                    );
                                }
                            }
                        });
                    }
                    Box::new(|| ()) as Box<dyn FnOnce()>
                }) as Builder<Msg, ()>
            })
            .collect();
        let out = run_sharded(&cfg, builders);
        let log = out.window_log.expect("observe_windows records the log");
        prop_assert_eq!(log.len() as u64, out.windows);
        let mut prev_horizon = None;
        for record in &log {
            if let Some(prev) = prev_horizon {
                prop_assert!(record.horizon > prev, "horizon did not advance");
            }
            prev_horizon = Some(record.horizon);
            for shard in &record.shards {
                prop_assert!(shard.after >= shard.before, "a shard clock ran backwards");
                prop_assert!(
                    shard.after < record.horizon,
                    "a shard executed at or past the safe horizon"
                );
                if let Some(arrival) = shard.sent_min_arrival {
                    prop_assert!(
                        arrival >= record.horizon,
                        "a message landed inside its own window"
                    );
                }
            }
        }
    }
}
